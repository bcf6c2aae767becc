//go:build mutants

package perfcloud_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutantsKilled applies each row of the mutant table through
// go test -overlay and requires the tests of every package the row
// names to fail; a package that fails to build does not count. Run it
// with `make mutants`.
func TestMutantsKilled(t *testing.T) {
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(src), m.anchor) != 1 {
				t.Fatalf("anchor does not occur exactly once in %s", m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.anchor, m.replacement, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			orig, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {orig: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", append([]string{"test", "-count=1", "-overlay", overlayFile}, m.pkgs...)...)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("mutant survived: every test passed\n%s", out)
			}
			for _, pkg := range m.pkgs {
				if !strings.Contains(string(out), "FAIL\t"+pkg+"\t") {
					t.Errorf("the tests of %s did not fail (a build failure does not count)", pkg)
				}
			}
			if t.Failed() {
				t.Logf("go test output:\n%s", out)
			}
		})
	}
}
