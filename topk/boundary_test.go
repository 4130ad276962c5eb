package topk_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicEntryPointsImportNoInternal pins the API boundary this package
// exists for: cmd/ and examples/ are consumers of the PUBLIC surface and
// must not import any internal/... package. (CI runs the same check via
// `go list`; asserting it here makes the boundary part of tier-1
// `go test ./...` as well.)
//
// One sanctioned exception: cmd/topkd may import topkmon/internal/serve —
// the HTTP frontend's tenant pool and handlers, factored out of the binary
// so they are unit-testable without a socket. The boundary's spirit is
// preserved by the complementary rule below: internal/serve itself may
// import nothing from internal/, only the public topk facade, so the
// entire server path still consumes the supported API.
func TestPublicEntryPointsImportNoInternal(t *testing.T) {
	allowed := map[string]map[string]bool{
		filepath.Join("..", "cmd", "topkd", "main.go"): {"topkmon/internal/serve": true},
	}
	fset := token.NewFileSet()
	for _, root := range []string{"../cmd", "../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if perr != nil {
				return perr
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(p, "topkmon/internal/") || p == "topkmon/internal" {
					if allowed[path][p] {
						continue
					}
					t.Errorf("%s imports %s — public entry points must use only the topk package", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}

// TestServeImportsOnlyPublicFacade is the other half of the topkd
// exception: the HTTP frontend must stay a pure consumer of the public
// topk package — no imports from the rest of internal/ except
// internal/wal, its durability layer — so every server guarantee
// (byte-identical outputs, zero-alloc ingest, fault health) is inherited
// from the facade rather than re-derived beside it. The companion rule
// closes the loop: internal/wal itself may import only the public topk
// package, so even the durability layer consumes the supported API.
func TestServeImportsOnlyPublicFacade(t *testing.T) {
	check := func(dir string, allowed map[string]bool) {
		fset := token.NewFileSet()
		err := filepath.WalkDir(filepath.Join("..", "internal", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if perr != nil {
				return perr
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(p, "topkmon/internal/") || p == "topkmon/internal" {
					if allowed[p] {
						continue
					}
					t.Errorf("%s imports %s — internal/%s may only consume the public topk facade", path, p, dir)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking internal/%s: %v", dir, err)
		}
	}
	check("serve", map[string]bool{"topkmon/internal/wal": true})
	check("wal", nil)
}

// TestSketchImportsNothingFromModule pins the sketch layer's isolation:
// internal/sketch is a pure-stdlib leaf — it imports NOTHING from this
// module (not even rngx; its seed mixing is self-contained) — so the
// streaming summaries stay reusable and their replay contract cannot
// entangle with the engine packages. Test files are exempt (they may use
// module helpers).
func TestSketchImportsNothingFromModule(t *testing.T) { checkStdlibLeaf(t, "sketch") }

// TestIDSetImportsNothingFromModule pins internal/idset, the node-id set
// the engine and the protocols share, as a stdlib-only leaf, so neither
// side can pull the other's packages in through it. Test files are exempt.
func TestIDSetImportsNothingFromModule(t *testing.T) { checkStdlibLeaf(t, "idset") }

// checkStdlibLeaf fails if a non-test file of internal/<pkg> imports any
// package of this module.
func checkStdlibLeaf(t *testing.T, pkg string) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("..", "internal", pkg), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "topkmon" || strings.HasPrefix(p, "topkmon/") {
				t.Errorf("%s imports %s — internal/%s must stay a stdlib-only leaf", path, p, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/%s: %v", pkg, err)
	}
}

// TestItemsLayerBoundary pins the item-monitoring layer's dependencies:
// topk/items is a PUBLIC subpackage built strictly on the public facade
// plus the sketch leaf — topkmon/topk and topkmon/internal/sketch and
// nothing else from the module — so it can never reach around the facade
// into the engines or protocols. Test files are exempt (they drive the
// layer with internal/stream/items traces).
func TestItemsLayerBoundary(t *testing.T) {
	allowed := map[string]bool{
		"topkmon/topk":            true,
		"topkmon/internal/sketch": true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("items", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "topkmon" || strings.HasPrefix(p, "topkmon/") {
				if allowed[p] {
					continue
				}
				t.Errorf("%s imports %s — topk/items may only consume topk and internal/sketch", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking topk/items: %v", err)
	}
}

// TestIndexIsLeafUnderEngine pins the node index below the engine that
// routes through it: internal/vindex imports nothing from the module
// except internal/eps and internal/wire, so the routing policy (which
// nodes a predicate visits) stays in the lockstep engine and the index
// cannot reach back into node state. Test files are exempt.
func TestIndexIsLeafUnderEngine(t *testing.T) {
	allowed := map[string]bool{
		"topkmon/internal/eps":  true,
		"topkmon/internal/wire": true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("..", "internal", "vindex"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if (p == "topkmon" || strings.HasPrefix(p, "topkmon/")) && !allowed[p] {
				t.Errorf("%s imports %s — internal/vindex may only consume internal/eps and internal/wire", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/vindex: %v", err)
	}
}
