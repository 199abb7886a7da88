package surrogate

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestMarshalRoundTripAllModels: every fitted model family must predict
// bit-identically after a marshal/unmarshal round trip — the finalize()
// archive of intermediate models must be faithful — and the reloaded model
// must marshal back to the same bytes.
func TestMarshalRoundTripAllModels(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	X, y := trainSet(r, 80, 3, quadratic)
	probes := [][]float64{
		{0.1, 0.2, 0.3}, {0.5, 0.5, 0.5}, {0.9, 0.1, 0.7}, {0.33, 0.77, 0.05},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range allModels(r) {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", m.Name(), err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", m.Name(), err)
		}
		if back.Name() != m.Name() {
			t.Errorf("%s: name became %s", m.Name(), back.Name())
		}
		for _, p := range probes {
			m1, s1 := m.PredictWithStd(p)
			m2, s2 := back.PredictWithStd(p)
			if !same(m1, m2) || !same(s1, s2) {
				t.Fatalf("%s: round trip changed prediction at %v: (%v,%v) vs (%v,%v)",
					m.Name(), p, m1, s1, m2, s2)
			}
		}
		wantM, wantS := m.PredictBatch(probes)
		gotM, gotS := back.PredictBatch(probes)
		for i := range probes {
			if !same(wantM[i], gotM[i]) || !same(wantS[i], gotS[i]) {
				t.Fatalf("%s: round trip changed batch row %d", m.Name(), i)
			}
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", m.Name(), err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: re-marshaled archive differs from the original", m.Name())
		}
	}
}

// TestRefitReloadedForest: a reloaded forest is built like a fresh one, so
// refitting it draws the same tree streams and split settings (random
// thresholds for ET, bootstrap for RF) as a fresh forest of its size built
// with a nil rng, bit for bit.
func TestRefitReloadedForest(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	Xa, ya := trainSet(r, 60, 3, quadratic)
	Xb, yb := trainSet(r, 60, 3, quadratic)
	grid, _ := trainSet(r, 50, 3, quadratic)
	const n = 20
	build := map[string]func(ForestConfig, *rand.Rand) *Forest{"ET": NewExtraTrees, "RF": NewRandomForest}
	for name, mk := range build {
		archived := mk(ForestConfig{NEstimators: n}, rand.New(rand.NewSource(3)))
		if err := archived.Fit(Xa, ya); err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(archived)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		fresh := mk(ForestConfig{NEstimators: n}, nil)
		for _, m := range []Model{reloaded, fresh} {
			if err := m.Fit(Xb, yb); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range grid {
			rm, rs := reloaded.PredictWithStd(x)
			fm, fs := fresh.PredictWithStd(x)
			if math.Float64bits(rm) != math.Float64bits(fm) || math.Float64bits(rs) != math.Float64bits(fs) {
				t.Fatalf("%s: refit reloaded forest predicts (%v, %v) at %v, fresh forest (%v, %v)", name, rm, rs, x, fm, fs)
			}
		}
	}
}

func TestMarshalUnfittedGPRejected(t *testing.T) {
	if _, err := Marshal(NewGP(DefaultGPConfig())); err == nil {
		t.Error("unfitted GP marshaled")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	for _, typ := range []string{"XGB", "TREE", "POLY", "LSSVM", "KNN"} {
		if _, err := Unmarshal([]byte(`{"type":"` + typ + `"}`)); err == nil {
			t.Errorf("unknown type %s accepted", typ)
		}
	}
	for _, k := range []string{"periodic", "rbf", "matern32"} {
		if _, err := Unmarshal([]byte(`{"type":"GP","gp":{"kernel":"` + k + `"}}`)); err == nil {
			t.Errorf("unknown kernel %s accepted", k)
		}
	}
	if _, err := Unmarshal([]byte(`{"type":"ET"}`)); err == nil {
		t.Error("missing payload accepted")
	}
	if _, err := Unmarshal([]byte(`{"type":"GP","gp":{"kernel":"matern52","x":[[1]],"alpha":[],"l":[]}}`)); err == nil {
		t.Error("inconsistent GP payload accepted")
	}
}

// split, leaf1 and leaf2 are the nodes of a well-formed two-leaf tree; gpOK
// is a GP payload minus its rows and length scale.
const (
	split = `{"f":0,"t":0.5,"l":1,"r":2,"v":1.5,"n":2}`
	leaf1 = `{"f":-1,"v":1,"n":1}`
	leaf2 = `{"f":-1,"v":2,"n":1}`
	gpOK  = `"kernel":"matern52","noise":1e-06,"alpha":[1,1],"l":[1,0,0,1],"y_mean":0,"y_std":1`
)

// TestUnmarshalRejectsMalformedArchives: archives whose trees the walk
// cannot follow, or whose GP payload PredictWithStd cannot evaluate, are
// errors, not models that hang or panic on their first prediction.
func TestUnmarshalRejectsMalformedArchives(t *testing.T) {
	forest := func(nodes string) string {
		return `{"type":"ET","forest":{"name":"ET","trees":[{"nodes":[` + nodes + `]}]}}`
	}
	gbrt := func(nodes string) string {
		return `{"type":"GBRT","gbrt":{"base":0,"rate":0.1,"stages":[{"nodes":[` + nodes + `]}],"residual_std":0}}`
	}
	gp := func(x, ls string) string {
		return `{"type":"GP","gp":{` + gpOK + `,"x":` + x + `,"length_scale":` + ls + `}}`
	}
	// The well-formed archives pass, so each case below fails on its one
	// defect.
	for _, ok := range []string{forest(split + "," + leaf1 + "," + leaf2), gbrt(split + "," + leaf1 + "," + leaf2),
		gp(`[[0.1,0.2],[0.3,0.4]]`, "0.5")} {
		if _, err := Unmarshal([]byte(ok)); err != nil {
			t.Fatalf("well-formed archive rejected: %v\n%s", err, ok)
		}
	}
	for name, bad := range map[string]string{
		// At a split node with "r":0 the walk jumps back to the root and
		// never returns.
		"ET split with r 0":          forest(`{"f":0,"t":0.5,"l":1,"v":0,"n":2},` + leaf1 + "," + leaf2),
		"GBRT split with r past end": gbrt(`{"f":0,"t":0.5,"l":1,"r":7,"v":0,"n":2},` + leaf1),
		"GP ragged x rows":           gp(`[[0.1,0.2],[0.3]]`, "0.5"),
		"empty tree":                 forest(""),
		"empty forest":               `{"type":"ET","forest":{"name":"ET","trees":[]}}`,
		"forest name mismatch":       `{"type":"ET","forest":{"name":"RF","trees":[{"nodes":[` + leaf1 + `]}]}}`,
		"split left not next":        forest(`{"f":0,"t":0.5,"l":2,"r":1,"v":0,"n":2},` + leaf1 + "," + leaf2),
		"split right equals left":    forest(`{"f":0,"t":0.5,"l":1,"r":1,"v":0,"n":2},` + leaf1 + "," + leaf2),
		"split right negative":       forest(`{"f":0,"t":0.5,"l":1,"r":-1,"v":0,"n":2},` + leaf1 + "," + leaf2),
		"split feature past int32":   forest(`{"f":4294967296,"t":0.5,"l":1,"r":2,"v":0,"n":2},` + leaf1 + "," + leaf2),
		"split as last node":         forest(leaf1 + `,{"f":0,"t":0.5,"l":2,"r":3,"v":0,"n":2}`),
		"GBRT rate 0":                `{"type":"GBRT","gbrt":{"base":0,"rate":0,"stages":[],"residual_std":0}}`,
		"GP zero-width rows":         gp(`[[],[]]`, "0.5"),
		"GP length scale 0":          gp(`[[0.1],[0.3]]`, "0"),
		"GP negative length scale":   gp(`[[0.1],[0.3]]`, "-1"),
		"GP noise 0":                 `{"type":"GP","gp":{"kernel":"matern52","noise":0,"alpha":[1],"l":[1],"x":[[0.1]],"length_scale":0.5}}`,
	} {
		if _, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("%s: malformed archive accepted\n%s", name, bad)
		}
	}
}
