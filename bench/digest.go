package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"reflect"
	"sort"
)

// digest hashes simulated outputs with FNV-64a over the bit patterns of
// every number (math.Float64bits for floats), never over formatted text, so
// a NaN sample or a -0 changes the digest.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) word(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	d.h.Write(b[:])
}

// add hashes v: structs field by field, slices and arrays element by
// element, maps in key order, pointers through to their target.
func (d *digest) add(v any) { d.value(reflect.ValueOf(v)) }

func (d *digest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		d.word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.word(v.Uint())
	case reflect.String:
		d.word(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		d.word(uint64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.word(0)
			return
		}
		d.word(1)
		d.value(v.Elem())
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// referenceSeed is the seed bench/testdata/reference.json pins.
const referenceSeed = 42

// loadReference reads the per-workload reference digests (hex strings).
func loadReference(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	ref := map[string]string{}
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	return ref, nil
}

// writeReference records sum as workload's reference digest, keeping the
// other workloads' entries.
func writeReference(path, workload string, sum uint64) error {
	ref, err := loadReference(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		ref = map[string]string{}
	case err != nil:
		return err
	}
	ref[workload] = hexDigest(sum)
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal reference: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func hexDigest(sum uint64) string { return fmt.Sprintf("%016x", sum) }
