package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles the mao binary once per test run.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mao")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

const driverInput = `	.text
	.type f,@function
f:
	subl $16, %r15d
	testl %r15d, %r15d
	je .Lz
	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
.Lz:
	ret
	.size f,.-f
`

func TestDriverPipeline(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	out := filepath.Join(dir, "out.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "--mao=REDTEST:REDMOV:ASM=o["+out+"]", "-stats", in)
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mao failed: %v\n%s", err, outBytes)
	}
	if !strings.Contains(string(outBytes), "REDTEST.removed = 1") {
		t.Errorf("stats missing:\n%s", outBytes)
	}
	emitted, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(emitted)
	if strings.Contains(text, "testl") {
		t.Error("redundant test survived")
	}
	if !strings.Contains(text, "movq\t%rdx, %rcx") {
		t.Errorf("REDMOV rewrite missing:\n%s", text)
	}
}

// TestDriverASMToDevice: ASM=o[...] may name a device — emitting to
// /dev/null succeeds instead of failing on the fsync a regular output
// file gets.
func TestDriverASMToDevice(t *testing.T) {
	bin := buildDriver(t)
	in := filepath.Join(t.TempDir(), "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "--mao=REDTEST:ASM=o[/dev/null]", in).CombinedOutput(); err != nil {
		t.Fatalf("mao failed writing to /dev/null: %v\n%s", err, out)
	}
}

func TestDriverAnalysisOnly(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	// Analysis-only pipeline: no ASM pass, no output file expected.
	out, err := exec.Command(bin, "--mao=LFIND", "-stats", in).CombinedOutput()
	if err != nil {
		t.Fatalf("mao failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "LFIND.") && len(out) != 0 {
		t.Logf("output: %s", out)
	}
}

func TestDriverListPasses(t *testing.T) {
	bin := buildDriver(t)
	out, err := exec.Command(bin, "-passes").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"REDTEST", "LOOP16", "SCHED", "ASM"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("pass list missing %s", want)
		}
	}
}

func TestDriverErrors(t *testing.T) {
	bin := buildDriver(t)
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("no-args invocation must fail")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	os.WriteFile(in, []byte(driverInput), 0o644)
	if err := exec.Command(bin, "--mao=NOSUCHPASS", in).Run(); err == nil {
		t.Error("unknown pass must fail")
	}
	if err := exec.Command(bin, "--mao=ASM", "/nonexistent.s").Run(); err == nil {
		t.Error("missing input must fail")
	}
}

// TestDriverPluginErrorsCollected loads several broken plugins in one
// invocation and expects every failure reported (not just the first)
// and exit status 1.
func TestDriverPluginErrorsCollected(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	missingA := filepath.Join(dir, "missing_a.so")
	missingB := filepath.Join(dir, "missing_b.so")
	notPlugin := filepath.Join(dir, "not_a_plugin.so")
	if err := os.WriteFile(notPlugin, []byte("not an ELF"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-plugin", missingA, "-plugin", notPlugin, "-plugin", missingB,
		"--mao=REDTEST", in)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	text := string(out)
	for _, so := range []string{missingA, notPlugin, missingB} {
		if !strings.Contains(text, "plugin "+so+":") {
			t.Errorf("error for %s not reported:\n%s", so, text)
		}
	}
}

// exitCode digs the process exit status out of an exec error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("not an exit error: %v", err)
	}
	return ee.ExitCode()
}

// TestDriverCheckJSONGolden pins the full --check=json output on a
// fixture violating every shipped rule: valid JSON, deterministic
// (sorted) order, file:line positions, exit status 2.
func TestDriverCheckJSONGolden(t *testing.T) {
	bin := buildDriver(t)
	cmd := exec.Command(bin, "--check=json", "testdata/check/bad.s")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, stderr.String())
	}

	golden, err := os.ReadFile("testdata/check/bad.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(golden) {
		t.Errorf("--check=json output differs from golden:\n--- got ---\n%s--- want ---\n%s",
			stdout.String(), golden)
	}

	var diags []struct {
		Rule string `json:"rule"`
		File string `json:"file"`
		Line int    `json:"line"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for i, d := range diags {
		seen[d.Rule] = true
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic %d lacks a file:line position: %+v", i, d)
		}
		if i > 0 && diags[i-1].Line > d.Line {
			t.Errorf("diagnostics not sorted by line at %d", i)
		}
	}
	for _, rule := range []string{
		"callee-save", "flags-undef", "reg-uninit",
		"stack-depth", "undef-label", "unreach",
	} {
		if !seen[rule] {
			t.Errorf("fixture did not trigger rule %s", rule)
		}
	}
}

func TestDriverCheckText(t *testing.T) {
	bin := buildDriver(t)
	cmd := exec.Command(bin, "--check", "testdata/check/bad.s")
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "bad.s:9: error: return with unbalanced stack (+8 bytes) [stack-depth] (in bad)") {
		t.Errorf("compiler-style rendering missing:\n%s", text)
	}
}

func TestDriverCheckClean(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	// driverInput has warnings (r15 use) but no error-severity
	// diagnostics, so --check exits 0.
	cmd := exec.Command(bin, "--check", in)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Errorf("exit = %d, want 0\n%s", code, out)
	}
}

func TestDriverCertify(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	// A correct pipeline certifies clean: no violations, exit 0.
	cmd := exec.Command(bin, "-certify", "--mao=REDTEST:REDMOV", in)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Errorf("certified pipeline exit = %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "introduced:") {
		t.Errorf("spurious violations:\n%s", out)
	}
}

// TestDriverPlugin exercises the dynamic pass-loading path: build the
// example plugin, load it, and run its pass. Skips when the toolchain
// cannot produce plugins (needs cgo).
func TestDriverPlugin(t *testing.T) {
	dir := t.TempDir()
	so := filepath.Join(dir, "retcount.so")
	build := exec.Command("go", "build", "-buildmode=plugin", "-o", so, "./testdata/plugin")
	build.Env = append(os.Environ(), "CGO_ENABLED=1")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("plugin buildmode unavailable: %v\n%s", err, out)
	}
	bin := buildDriver(t)
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-plugin", so, "--mao=RETCOUNT", "-stats", in).CombinedOutput()
	if err != nil {
		t.Skipf("plugin load failed (toolchain/flag mismatch): %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "RETCOUNT.returns = 1") {
		t.Errorf("plugin pass stats missing:\n%s", out)
	}
}

// TestDriverVerifyClean: a correct pipeline translation-validates
// clean — no refutation diagnostics, exit 0.
func TestDriverVerifyClean(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-verify", "--mao=REDTEST:REDMOV", in)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Errorf("verified pipeline exit = %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "verify-equiv") {
		t.Errorf("spurious refutations:\n%s", out)
	}
}

// TestDriverVerifyJSON: -verify=json emits a (here empty) JSON
// diagnostic array on stdout.
func TestDriverVerifyJSON(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-verify=json", "--mao=REDTEST:REDMOV", in)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, stderr.String())
	}
	var diags []json.RawMessage
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 0 {
		t.Errorf("clean pipeline produced %d diagnostics:\n%s", len(diags), stdout.String())
	}
}

// TestDriverMergedStream: --check and -verify combined produce ONE
// merged, sorted diagnostic stream — byte-identical to --check alone
// when verification is clean, never a second interleaved report.
func TestDriverMergedStream(t *testing.T) {
	bin := buildDriver(t)
	run := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, append(args, "testdata/check/bad.s")...)
		out, err := cmd.CombinedOutput()
		return string(out), exitCode(t, err)
	}
	checkOnly, code1 := run("--check")
	if code1 != 2 {
		t.Fatalf("--check exit = %d, want 2\n%s", code1, checkOnly)
	}
	both, code2 := run("--check", "-verify")
	if code2 != 2 {
		t.Fatalf("--check -verify exit = %d, want 2\n%s", code2, both)
	}
	if both != checkOnly {
		t.Errorf("merged stream differs from --check alone:\n--- merged ---\n%s--- check ---\n%s",
			both, checkOnly)
	}
}

// TestDriverBinaryRoundtrip: -emit-binary assembles a fixture to raw
// machine code; -binary lifts that blob back, runs a pipeline over it,
// and both the assembly and re-emitted image reflect the
// optimization.
func TestDriverBinaryRoundtrip(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.s")
	blob := filepath.Join(dir, "in.bin")
	outS := filepath.Join(dir, "out.s")
	outBin := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(in, []byte(driverInput), 0o644); err != nil {
		t.Fatal(err)
	}

	if out, err := exec.Command(bin, "-emit-binary", blob, in).CombinedOutput(); err != nil {
		t.Fatalf("emit-binary failed: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty machine-code image")
	}

	// Decode with no pipeline: the re-emitted image is byte-identical.
	if out, err := exec.Command(bin, "-binary", "-emit-binary", outBin, blob).CombinedOutput(); err != nil {
		t.Fatalf("binary roundtrip failed: %v\n%s", err, out)
	}
	round, err := os.ReadFile(outBin)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(raw) {
		t.Errorf("decode→re-encode not byte-identical: %x vs %x", round, raw)
	}

	// Decode with a pipeline: REDTEST fires on the lifted unit and the
	// optimized image shrinks.
	out, err := exec.Command(bin, "-binary", "-stats", "-emit-binary", outBin,
		"--mao=REDTEST:ASM=o["+outS+"]", blob).CombinedOutput()
	if err != nil {
		t.Fatalf("binary pipeline failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "REDTEST.removed = 1") {
		t.Errorf("stats missing:\n%s", out)
	}
	text, err := os.ReadFile(outS)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(text), "testl") {
		t.Errorf("redundant test survived the decoded pipeline:\n%s", text)
	}
	if !strings.Contains(string(text), ".Lmaodec_") {
		t.Errorf("no synthetic labels in decoded assembly:\n%s", text)
	}
	opt, err := os.ReadFile(outBin)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) >= len(raw) {
		t.Errorf("optimized image did not shrink: %d -> %d bytes", len(raw), len(opt))
	}
}

// TestDriverBinaryHexStdin: -binary=hex reads hex text (here from
// stdin via "-"), and -base shapes the synthetic label names.
func TestDriverBinaryHexStdin(t *testing.T) {
	bin := buildDriver(t)
	outS := filepath.Join(t.TempDir(), "out.s")
	// 0: xorl %eax,%eax; 2: decl %eax; 4: jne 2; 6: ret
	cmd := exec.Command(bin, "-binary=hex", "-base", "0x401000", "--mao=ASM=o["+outS+"]", "-")
	cmd.Stdin = strings.NewReader("31c0 ffc8 75fc c3\n")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mao failed: %v\n%s", err, out)
	}
	text, err := os.ReadFile(outS)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "jne\t.Lmaodec_401002") {
		t.Errorf("branch not lifted to a base-relative label:\n%s", text)
	}
}

// TestDriverBinaryDecodeError: malformed machine code fails with the
// decoder's structured offset-carrying message, not a panic.
func TestDriverBinaryDecodeError(t *testing.T) {
	bin := buildDriver(t)
	blob := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(blob, []byte{0x90, 0x48}, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-binary", blob).CombinedOutput()
	if code := exitCode(t, err); code == 0 {
		t.Fatalf("truncated input exited 0\n%s", out)
	}
	if !strings.Contains(string(out), "offset 0x1") || !strings.Contains(string(out), "truncated") {
		t.Errorf("error lacks offset/cause: %s", out)
	}
}
