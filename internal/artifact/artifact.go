// Package artifact owns the two decisions every failure artifact in this
// module shares: how a failing input is reduced, and how an artifact is
// written down.
//
// Against an oblivious adversary a failing run is a pure function of its
// seeds, its schedule and its faults, so every counterexample can be
// shrunk and then replayed byte for byte. The reducer here is the
// delta-debugging (ddmin) search behind fault.Shrink, des.ShrinkChaos and
// the attack search's genome shrinker; the codec is the one encoding of
// the fault-repro, DES fault-repro and attack-record schemas.
//
// The reducer never counts calls: each caller's keep closure owns its
// budget (and refuses every candidate once it is spent), so the helpers
// stay deterministic in their inputs and keep's answers alone.
package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
)

// DeleteChunks reduces items by deleting contiguous chunks: halves
// first, then quarters, down to single items, and then repeats
// single-item passes until one removes nothing. keep reports whether a
// candidate still fails; a deletion is adopted only when it does. keep
// owns cand and may rewrite it in place (into a canonical order, say):
// an adopted candidate is taken as keep left it. items itself is never
// written.
//
// The last pass offers keep every single-item deletion of the result and
// adopts none, so for a deterministic keep the result is 1-minimal:
// removing any one item makes keep refuse.
func DeleteChunks[T any](items []T, keep func(cand []T) bool) []T {
	cur := items
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		reduced := false
		for start := 0; start < len(cur); {
			end := min(start+chunk, len(cur))
			cand := make([]T, 0, len(cur)-(end-start))
			cand = append(append(cand, cur[:start]...), cur[end:]...)
			if keep(cand) {
				cur, reduced = cand, true
				// Keep start in place: the next chunk slid into it.
			} else {
				start = end
			}
		}
		if chunk == 1 {
			if !reduced {
				break
			}
			// Single-item deletions still landing: go around again.
			continue
		}
		chunk /= 2
	}
	return cur
}

// HalveEach reduces each item's magnitude in turn, in index order:
// size reports an item's magnitude and its floor, resize returns the
// item with a new magnitude, and the magnitude is halved (never below
// the floor) for as long as keep accepts the candidate. As with
// DeleteChunks, keep owns cand and items itself is never written.
func HalveEach[T any](items []T, size func(T) (mag, floor int64), resize func(T, int64) T, keep func(cand []T) bool) []T {
	for i := range items {
		for {
			mag, floor := size(items[i])
			if mag <= floor {
				break
			}
			cand := slices.Clone(items)
			cand[i] = resize(cand[i], max(mag/2, floor))
			if !keep(cand) {
				break
			}
			items = cand
		}
	}
	return items
}

// Validator is an artifact that can check it is well-formed enough to
// replay.
type Validator interface {
	Validate() error
}

// Encode validates v and serializes it as indented JSON with a trailing
// newline.
func Encode(v Validator) ([]byte, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return marshal(v)
}

// Decode parses an artifact of type T and validates it. A malformed
// document fails with an error naming T; a well-formed but invalid one
// fails with T's Validate error.
func Decode[T any, P interface {
	*T
	Validator
}](data []byte) (*T, error) {
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("artifact: parsing %s: %w", reflect.TypeFor[T](), err)
	}
	if err := P(v).Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// Save writes v's encoding to path, creating parent directories.
func Save(path string, v Validator) error {
	data, err := Encode(v)
	if err != nil {
		return err
	}
	return write(path, data)
}

// Load reads the artifact at path and decodes it as Decode does.
func Load[T any, P interface {
	*T
	Validator
}](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode[T, P](data)
}

// WriteJSON writes v to path in the artifact encoding without validating
// it, creating parent directories: the form of sweep and bench records,
// which have no replay contract to check.
func WriteJSON(path string, v any) error {
	data, err := marshal(v)
	if err != nil {
		return err
	}
	return write(path, data)
}

func marshal(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func write(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
