package main

// Crash-resume integration tests: a real leaksweep subprocess is killed
// (SIGKILL — no cleanup of any kind) mid-sweep with -cache, the identical
// command is rerun, and its stdout must be byte-identical to an
// uninterrupted run.  The subprocess is this test binary re-executed with
// LEAKSWEEP_RUN_MAIN=1, so no separate build step is needed.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("LEAKSWEEP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepArgs is a small (8-job) but real sweep: one benchmark, one size,
// the full paper technique set, heavily scaled down.
func sweepArgs(extra ...string) []string {
	args := []string{"-benchmarks", "WATER-NS", "-sizes", "1", "-scale", "0.005",
		"-seed", "7", "-jobs", "2", "-quiet"}
	return append(args, extra...)
}

// runMain executes this test binary as leaksweep.
func runMain(t *testing.T, args []string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), code
}

// waitForCacheRecord polls the cache directory of a live run until a
// segment holds more than its 8-byte magic, i.e. at least one record has
// landed.  It only stats the files: opening the store would truncate the
// tail a live writer is appending to.
func waitForCacheRecord(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.cas"))
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil && fi.Size() > int64(len("CMPLCAS1")) {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cache %s never received a record", dir)
}

var cacheSummary = regexp.MustCompile(`cache: (\d+) job\(s\) reused, (\d+) result\(s\) recorded`)

// cacheCounts parses the run's cache summary line from its stderr.
func cacheCounts(t *testing.T, stderr string) (reused, recorded int) {
	t.Helper()
	m := cacheSummary.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no cache summary in stderr:\n%s", stderr)
	}
	reused, _ = strconv.Atoi(m[1])
	recorded, _ = strconv.Atoi(m[2])
	return reused, recorded
}

// TestCrashResumeByteIdentical is the end-to-end resume proof: SIGKILL a
// -cache sweep mid-run, rerun the identical command, and compare stdout
// byte for byte against an uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	wantOut, _, code := runMain(t, sweepArgs())
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}
	if !strings.Contains(wantOut, "Figure") {
		t.Fatalf("reference run produced no report:\n%s", wantOut)
	}

	dir := filepath.Join(t.TempDir(), "cache")
	args := sweepArgs("-cache", dir)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as at least one job is cached but (hopefully) before the
	// sweep finishes.  If the process wins the race and completes, the rerun
	// below simply reuses everything — the assertions hold either way.
	waitForCacheRecord(t, dir)
	cmd.Process.Kill() // SIGKILL: no flush, no handler, nothing
	cmd.Wait()

	gotOut, gotErr, code := runMain(t, args)
	if code != 0 {
		t.Fatalf("rerun exited %d:\n%s", code, gotErr)
	}
	reused, recorded := cacheCounts(t, gotErr)
	t.Logf("killed with %d of 8 jobs cached", reused)
	if reused < 1 || reused+recorded != 8 {
		t.Fatalf("rerun reused %d and recorded %d jobs; want >= 1 reused and 8 in total", reused, recorded)
	}
	if gotOut != wantOut {
		t.Fatalf("resumed stdout diverged from the uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", wantOut, gotOut)
	}
}

// TestCacheWarmRunByteIdentical runs the same sweep twice over one -cache
// directory: the warm run must reuse every job (its summary says so) and
// print byte-identical stdout.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	coldOut, coldErr, code := runMain(t, sweepArgs("-cache", dir))
	if code != 0 {
		t.Fatalf("cold run exited %d:\n%s", code, coldErr)
	}
	if !strings.Contains(coldErr, "cache: 0 job(s) reused, 8 result(s) recorded") {
		t.Fatalf("cold run summary missing:\n%s", coldErr)
	}
	warmOut, warmErr, code := runMain(t, sweepArgs("-cache", dir))
	if code != 0 {
		t.Fatalf("warm run exited %d:\n%s", code, warmErr)
	}
	if !strings.Contains(warmErr, "cache: 8 job(s) reused, 0 result(s) recorded") {
		t.Fatalf("warm run did not reuse all 8 jobs:\n%s", warmErr)
	}
	if warmOut != coldOut {
		t.Fatalf("warm stdout diverged from cold run\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	// A different seed is a different options digest: nothing may be reused.
	otherArgs := sweepArgs("-cache", dir)
	for i, a := range otherArgs {
		if a == "-seed" {
			otherArgs[i+1] = "8"
		}
	}
	_, otherErr, code := runMain(t, otherArgs)
	if code != 0 {
		t.Fatalf("other-seed run exited %d:\n%s", code, otherErr)
	}
	if !strings.Contains(otherErr, "cache: 0 job(s) reused, 8 result(s) recorded") {
		t.Fatalf("other-seed run reused foreign results:\n%s", otherErr)
	}
}

func TestCacheRefusedWithMerge(t *testing.T) {
	_, stderr, code := runMain(t, []string{"-merge", "nope*.json", "-cache", "c"})
	if code == 0 {
		t.Fatal("-merge -cache accepted")
	}
	if !strings.Contains(stderr, "-cache") {
		t.Fatalf("error does not mention -cache:\n%s", stderr)
	}
}

// TestSigintGracefulShutdown sends SIGINT mid-sweep: the process must exit
// 130, flush the cache, and print the unchanged command, whose rerun then
// resumes from the cache.
func TestSigintGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// -jobs 1 stretches the run so the signal lands before completion.
	dir := filepath.Join(t.TempDir(), "cache")
	args := sweepArgs("-cache", dir)
	for i, a := range args {
		if a == "-jobs" {
			args[i+1] = "1"
		}
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForCacheRecord(t, dir)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if err == nil {
		t.Skip("sweep finished before the signal landed")
	}
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run exited %v, want code 130\n%s", err, errBuf.String())
	}
	rerun := strings.Join(append([]string{os.Args[0]}, args...), " ")
	for _, want := range []string{"canceled", "completed jobs are cached; rerun the same command to resume", rerun} {
		if !strings.Contains(errBuf.String(), want) {
			t.Fatalf("shutdown message missing %q:\n%s", want, errBuf.String())
		}
	}
	// The printed command must resume cleanly from the cache.
	gotOut, gotErr, code := runMain(t, args)
	if code != 0 {
		t.Fatalf("rerun after SIGINT exited %d:\n%s", code, gotErr)
	}
	if !strings.Contains(gotOut, "Figure") {
		t.Fatal("rerun after SIGINT produced no report")
	}
	if reused, _ := cacheCounts(t, gotErr); reused < 1 {
		t.Fatalf("rerun after SIGINT reused %d jobs, want >= 1", reused)
	}
}
