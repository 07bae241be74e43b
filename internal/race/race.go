//go:build race

// Package race tells tests whether they run under -race, whose runtime
// makes allocation figures wobble (sync.Pool drops a quarter of its
// Puts), so exact allocation budgets skip there.
package race

const Enabled = true
