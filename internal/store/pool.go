package store

// Fold scratch is pooled. What a query folds into — the accumulators'
// slot tables, count arrays and pages, the count-first pass's table, a
// worker's gather block, the matcher's per-segment bitmaps — is the same
// few hundred kilobytes request after request, and allocating it fresh
// each time made the collector a fifth of a read-only daemon's CPU. Each
// kind sits in its own sync.Pool next to its type (topPool, rollupPool,
// topCountsPool, gatherPool, scanPool) with one discipline, the one jsonw
// follows for render buffers: a constructor borrows and resets, Release
// (or release) gives back, and whoever took the accumulator from a fold
// releases it once the Doc or Partial — both copies, never views — is
// out. An object whose arrays grew past maxPooledBytes goes to the
// collector instead: one giant answer (a by-node rollup at 1s buckets
// holds millions of cells) must not pin its tables for the life of the
// daemon.
const maxPooledBytes = 4 << 20
