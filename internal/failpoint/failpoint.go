// Package failpoint is a registry of named fault-injection sites.
//
// A site is a fixed point in a storage or pipeline code path — a segment
// write, an fsync, a journal append — where a test or a crash harness
// can inject a failure: return an error, sleep, hard-kill the process
// with SIGKILL, or (in-process tests) call a hook that stands in for the
// kill. Sites are package-level variables registered at init
// time, so the catalog is complete as soon as the binary links, and a
// disabled site costs one atomic pointer load per Eval — the production
// path pays nothing measurable.
//
// Activation is by spec string, either programmatically (Enable, Arm)
// or from the environment (ArmFromEnv; cmd/titand reads
// TITAND_FAILPOINTS and its -failpoints flag). The spec grammar:
//
//	name=action[,name=action...]
//
//	error        every Eval returns ErrInjected
//	error:N      the first N Evals return ErrInjected, then succeed
//	             (a transient fault; exercises retry paths)
//	delay:DUR    every Eval sleeps DUR (time.ParseDuration syntax)
//	kill         SIGKILL the process on the first Eval
//	kill:N       SIGKILL the process on the Nth Eval
//	crash[:N]    call the OnCrash hook on the first (Nth) Eval, once, and
//	             carry on: the in-process stand-in for kill, whose hook
//	             freezes what a kill would have left on disk
//
// Example: TITAND_FAILPOINTS='store.segment.sync=kill:2' hard-kills the
// daemon the second time a segment fsync is attempted — the crash
// harness (scripts/crash.sh) iterates the whole catalog this way and
// asserts recovery after every one.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected is the error an armed error-action site returns; injection
// sites wrap it with the site name, so errors.Is works through the
// chain.
var ErrInjected = errors.New("failpoint: injected error")

// kind is the armed action at a site.
type kind int

const (
	kindError kind = iota
	kindDelay
	kindKill
	kindCrash
)

// state is one armed action. remaining counts down error budgets and up
// to kill thresholds; delay carries the sleep.
type state struct {
	kind kind
	// remaining is the transient-error budget for kindError (negative =
	// unlimited) and the trigger hit for kindKill.
	remaining atomic.Int64
	delay     time.Duration
}

// Site is one registered injection point. The zero-cost guarantee:
// when nothing is armed, Eval is a single atomic load returning nil.
type Site struct {
	name  string
	armed atomic.Pointer[state]
	hits  atomic.Uint64
}

// registry holds every site ever registered, in registration order.
var registry struct {
	mu    sync.Mutex
	sites map[string]*Site
	order []string
}

// Register returns the site named name, creating it on first use.
// Sites are typically package-level vars so registration happens at
// link time and the catalog (Names) is complete before main runs.
func Register(name string) *Site {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.sites == nil {
		registry.sites = make(map[string]*Site)
	}
	if s, ok := registry.sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	registry.sites[name] = s
	registry.order = append(registry.order, name)
	return s
}

// Names returns every registered site name, sorted — the failpoint
// catalog (titand -list-failpoints prints it).
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	sort.Strings(out)
	return out
}

// lookup returns the registered site or nil.
func lookup(name string) *Site {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.sites[name]
}

// Hits returns how many times Eval ran on an armed site.
func (s *Site) Hits() uint64 { return s.hits.Load() }

// Eval runs the site: nil when disarmed (the fast path), ErrInjected
// while an error budget lasts, a sleep for delays — and for kill, the
// process dies by SIGKILL and Eval never returns.
func (s *Site) Eval() error {
	st := s.armed.Load()
	if st == nil {
		return nil
	}
	hit := s.hits.Add(1)
	switch st.kind {
	case kindError:
		for {
			rem := st.remaining.Load()
			if rem == 0 {
				return nil // budget spent; the fault was transient
			}
			if rem < 0 || st.remaining.CompareAndSwap(rem, rem-1) {
				return fmt.Errorf("%s: %w", s.name, ErrInjected)
			}
		}
	case kindDelay:
		time.Sleep(st.delay)
	case kindKill:
		if hit >= uint64(st.remaining.Load()) {
			kill()
		}
	case kindCrash:
		if fn := crashHook.Load(); fn != nil && *fn != nil && hit == uint64(st.remaining.Load()) {
			(*fn)(s.name)
		}
	}
	return nil
}

// crashHook is what an armed crash action calls, with the site's name.
var crashHook atomic.Pointer[func(site string)]

// OnCrash sets the hook crash actions fire (nil clears it). The fleet
// schedule tests freeze the victim's state directory in it: the copy is
// what a kill -9 at that site would have left, and the process lives on.
func OnCrash(fn func(site string)) { crashHook.Store(&fn) }

// kill hard-terminates the process the way a power loss would look to
// everyone else: SIGKILL, no deferred functions, no flushes.
func kill() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL is not synchronous with the syscall return; don't let the
	// caller observe a survived kill site.
	select {}
}

// Enable arms one site with an action spec (see the package comment for
// the grammar). Unknown sites are an error: a typo in a harness should
// fail loudly, not silently test nothing.
func Enable(name, action string) error {
	s := lookup(name)
	if s == nil {
		return fmt.Errorf("failpoint: unknown site %q (catalog: %s)", name, strings.Join(Names(), " "))
	}
	st, err := parseAction(action)
	if err != nil {
		return fmt.Errorf("failpoint: %s: %w", name, err)
	}
	s.hits.Store(0)
	s.armed.Store(st)
	return nil
}

// Disable disarms one site; unknown names are a no-op.
func Disable(name string) {
	if s := lookup(name); s != nil {
		s.armed.Store(nil)
	}
}

// DisableAll disarms every site (tests call it in cleanup).
func DisableAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, s := range registry.sites {
		s.armed.Store(nil)
	}
}

// Arm parses a comma-separated spec of name=action pairs and arms each.
func Arm(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, action, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("failpoint: bad spec %q (want name=action)", part)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(action)); err != nil {
			return err
		}
	}
	return nil
}

// ArmFromEnv arms the spec in the named environment variable; an unset
// or empty variable is a no-op.
func ArmFromEnv(key string) error {
	if spec := os.Getenv(key); spec != "" {
		return Arm(spec)
	}
	return nil
}

// parseAction decodes one action spec into an armed state.
func parseAction(action string) (*state, error) {
	verb, arg, hasArg := strings.Cut(action, ":")
	st := &state{}
	switch verb {
	case "error":
		st.kind = kindError
		st.remaining.Store(-1)
		if hasArg {
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad error budget %q", arg)
			}
			st.remaining.Store(n)
		}
	case "delay":
		st.kind = kindDelay
		if !hasArg {
			return nil, errors.New("delay needs a duration, e.g. delay:10ms")
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("bad delay %q: %w", arg, err)
		}
		st.delay = d
	case "kill", "crash":
		st.kind = kindKill
		if verb == "crash" {
			st.kind = kindCrash
		}
		st.remaining.Store(1)
		if hasArg {
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad %s hit %q", verb, arg)
			}
			st.remaining.Store(n)
		}
	default:
		return nil, fmt.Errorf("unknown action %q (error, error:N, delay:DUR, kill, kill:N, crash, crash:N)", verb)
	}
	return st, nil
}
