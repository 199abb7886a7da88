package scenario

import (
	"fmt"
	"reflect"

	"e2clab/internal/tune"
)

// resultField is one numeric leaf of Result: its dotted path (e.g.
// "EngineResp.Mean"), its reflect index path, and its kind (Int or Float64).
type resultField struct {
	path  string
	index []int
	kind  reflect.Kind
}

// resultLayout is the checkpoint wire format: every int, int64 and float64
// field of Result in declaration order, nested and embedded structs
// flattened. It is derived, not
// declared, so a new numeric field is carried without further edits; the
// paths are hashed into the fingerprint, so adding, removing or reordering a
// field makes older checkpoint trials re-run instead of mis-decoding.
// Strings (Name, NetModel) derive from the spec and are restored from it on
// resume; any other field kind panics here, at package initialisation.
var resultLayout = walkResult(reflect.TypeOf(Result{}), nil, "")

func walkResult(t reflect.Type, index []int, prefix string) []resultField {
	var out []resultField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		path := prefix + f.Name
		switch k := f.Type.Kind(); k {
		case reflect.Int, reflect.Int64, reflect.Float64:
			out = append(out, resultField{path, idx, k})
		case reflect.String:
			// Restored from the spec on resume.
		case reflect.Struct:
			out = append(out, walkResult(f.Type, idx, path+".")...)
		default:
			panic(fmt.Sprintf("scenario: Result field %s has kind %s, which the checkpoint cannot carry", path, k))
		}
	}
	return out
}

// encodeResult flattens a Result into checkpoint reports (all finite) in
// resultLayout order.
func encodeResult(r *Result) []tune.Report {
	v := reflect.ValueOf(r).Elem()
	out := make([]tune.Report, len(resultLayout))
	for i, f := range resultLayout {
		fv := v.FieldByIndex(f.index)
		var x float64
		if f.kind == reflect.Float64 {
			x = fv.Float()
		} else {
			x = float64(fv.Int())
		}
		out[i] = tune.Report{Iteration: i, Value: x}
	}
	return out
}

// decodeResult rebuilds the numeric fields of a Result from checkpoint
// reports; ok is false when the reports do not carry resultLayout's exact
// shape (a stale checkpoint, written before a field was added or removed).
// The string fields are left for the caller to restore from the spec.
func decodeResult(reports []tune.Report) (*Result, bool) {
	if len(reports) != len(resultLayout) {
		return nil, false
	}
	r := &Result{}
	v := reflect.ValueOf(r).Elem()
	for i, rep := range reports {
		if rep.Iteration != i {
			return nil, false
		}
		f := resultLayout[i]
		if f.kind == reflect.Float64 {
			v.FieldByIndex(f.index).SetFloat(rep.Value)
		} else {
			v.FieldByIndex(f.index).SetInt(int64(rep.Value))
		}
	}
	return r, true
}
