package failpoint

import (
	"errors"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	siteA = Register("test.site.a")
	siteB = Register("test.site.b")
)

func TestDisarmedIsNil(t *testing.T) {
	for i := 0; i < 100; i++ {
		if err := siteA.Eval(); err != nil {
			t.Fatalf("disarmed Eval returned %v", err)
		}
	}
}

func TestRegisterIdempotent(t *testing.T) {
	if Register("test.site.a") != siteA {
		t.Fatal("re-registering returned a different site")
	}
}

func TestErrorEveryHit(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("test.site.a", "error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := siteA.Eval()
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
	}
	if siteA.Hits() != 5 {
		t.Fatalf("hits = %d, want 5", siteA.Hits())
	}
	if err := siteB.Eval(); err != nil {
		t.Fatalf("unarmed sibling site failed: %v", err)
	}
}

func TestErrorBudgetIsTransient(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("test.site.a", "error:3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := siteA.Eval(); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := siteA.Eval(); err != nil {
			t.Fatalf("post-budget hit %d: got %v, want nil", i, err)
		}
	}
}

func TestErrorBudgetExactUnderConcurrency(t *testing.T) {
	t.Cleanup(DisableAll)
	const budget = 64
	if err := Enable("test.site.a", "error:64"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	injected := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 100; i++ {
				if siteA.Eval() != nil {
					n++
				}
			}
			mu.Lock()
			injected += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if injected != budget {
		t.Fatalf("injected %d errors across goroutines, want exactly %d", injected, budget)
	}
}

func TestDelay(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("test.site.a", "delay:30ms"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := siteA.Eval(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("delay site returned after %v, want >= 30ms", d)
	}
}

func TestArmSpecAndDisable(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Arm("test.site.a=error, test.site.b=delay:1ms"); err != nil {
		t.Fatal(err)
	}
	if err := siteA.Eval(); !errors.Is(err, ErrInjected) {
		t.Fatalf("a: got %v", err)
	}
	if err := siteB.Eval(); err != nil {
		t.Fatalf("b: got %v", err)
	}
	Disable("test.site.a")
	if err := siteA.Eval(); err != nil {
		t.Fatalf("disabled site still injects: %v", err)
	}
}

func TestArmRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"no.such.site=error",
		"test.site.a",
		"test.site.a=explode",
		"test.site.a=error:0",
		"test.site.a=delay",
		"test.site.a=kill:-1",
		"test.site.a=crash:0",
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) succeeded, want error", spec)
		}
	}
	DisableAll()
}

// TestCrashFiresHookOnce: a crash action calls the hook with the site's
// name on exactly the armed hit, and every Eval — that one too — goes on.
func TestCrashFiresHookOnce(t *testing.T) {
	t.Cleanup(DisableAll)
	t.Cleanup(func() { OnCrash(nil) })
	var fired []uint64
	OnCrash(func(site string) {
		if site != "test.site.a" {
			t.Errorf("hook called for %q", site)
		}
		fired = append(fired, siteA.Hits())
	})
	if err := Enable("test.site.a", "crash:3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := siteA.Eval(); err != nil {
			t.Fatalf("hit %d: crash action returned %v", i+1, err)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("hook fired at hits %v, want once at 3", fired)
	}
	OnCrash(nil)
	if err := Enable("test.site.a", "crash"); err != nil {
		t.Fatal(err)
	}
	if err := siteA.Eval(); err != nil || len(fired) != 1 {
		t.Fatalf("cleared hook: Eval returned %v, hook calls %d", err, len(fired))
	}
}

func TestArmFromEnv(t *testing.T) {
	t.Cleanup(DisableAll)
	t.Setenv("FAILPOINT_TEST_SPEC", "test.site.a=error")
	if err := ArmFromEnv("FAILPOINT_TEST_SPEC"); err != nil {
		t.Fatal(err)
	}
	if err := siteA.Eval(); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	t.Setenv("FAILPOINT_TEST_SPEC", "")
	if err := ArmFromEnv("FAILPOINT_TEST_SPEC"); err != nil {
		t.Fatalf("empty env var should be a no-op, got %v", err)
	}
}

func TestNamesIncludesCatalog(t *testing.T) {
	names := Names()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	if !seen["test.site.a"] || !seen["test.site.b"] {
		t.Fatalf("catalog %v is missing the test sites", names)
	}
}

// TestKillIsSIGKILL re-executes the test binary as a helper process that
// arms a kill site and Evals it on the Nth hit; the parent asserts the
// child died by SIGKILL exactly there, not by a clean exit.
func TestKillIsSIGKILL(t *testing.T) {
	if os.Getenv("FAILPOINT_KILL_HELPER") == "1" {
		if err := Arm("test.site.a=kill:3"); err != nil {
			os.Exit(3)
		}
		siteA.Eval()
		siteA.Eval()
		os.Stdout.WriteString("two-survived\n")
		os.Stdout.Sync()
		siteA.Eval() // never returns
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestKillIsSIGKILL")
	cmd.Env = append(os.Environ(), "FAILPOINT_KILL_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper survived its kill site; output: %s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("helper failed oddly: %v; output: %s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("helper exited %v, want SIGKILL; output: %s", err, out)
	}
	if string(out) != "two-survived\n" {
		t.Fatalf("kill fired at the wrong hit; output: %q", out)
	}
}
