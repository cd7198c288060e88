package analysis

import (
	"go/importer"
	"go/token"
	"go/types"
	"testing"
)

// TestEmissionSurfacesDeclared resolves every function ID the emission
// table and obsgate's guard surfaces name against the real obs and sim
// packages, so a renamed method cannot silently drop out of obsgate and
// the detrange rule.
func TestEmissionSurfacesDeclared(t *testing.T) {
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
	declared := make(map[string]bool)
	for _, path := range []string{obsPkgPath, "nectar/internal/sim"} {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				declared[funcID(obj)] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					declared[funcID(named.Method(i))] = true
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						declared[funcID(iface.Method(i))] = true
					}
				}
			}
		}
	}
	ids := []string{obsTracingID, obsCaptureLogID}
	for id := range emissionSurfaces {
		ids = append(ids, id)
	}
	for _, id := range ids {
		if !declared[id] {
			t.Errorf("%s is not a declared function or method", id)
		}
	}
}
