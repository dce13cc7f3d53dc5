package artifact

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// needs is a monotone keep: a candidate still fails while it holds every
// culprit.
func needs(culprits ...int) func([]int) bool {
	return func(cand []int) bool {
		for _, c := range culprits {
			if !slices.Contains(cand, c) {
				return false
			}
		}
		return true
	}
}

func upTo(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func TestDeleteChunksOneMinimal(t *testing.T) {
	for _, tc := range []struct {
		n        int
		culprits []int
	}{
		{0, nil},
		{1, nil},
		{1, []int{0}},
		{7, []int{3}},
		{16, []int{0, 15}},
		{33, []int{2, 3, 17, 31}},
		{64, []int{5, 6, 7, 8, 40}},
	} {
		items := upTo(tc.n)
		keep := needs(tc.culprits...)
		got := DeleteChunks(items, keep)
		want := tc.culprits
		if want == nil {
			want = []int{}
		}
		if len(got) != len(want) || (len(got) > 0 && !slices.Equal(got, want)) {
			t.Errorf("n=%d culprits=%v: got %v", tc.n, tc.culprits, got)
		}
		for i := range got {
			if keep(slices.Delete(slices.Clone(got), i, i+1)) {
				t.Errorf("n=%d: result %v is not 1-minimal: item %d is removable", tc.n, got, got[i])
			}
		}
		if !slices.Equal(items, upTo(tc.n)) {
			t.Errorf("n=%d: input slice was written: %v", tc.n, items)
		}
	}
}

// TestDeleteChunksRepeatsSinglePasses: under a keep that is not
// monotone, a deletion late in a single-item pass can make an earlier
// item removable; the repeated passes still end 1-minimal.
func TestDeleteChunksRepeatsSinglePasses(t *testing.T) {
	// Items 1 and 3 are needed; 0 may go only once 2 is gone.
	keep := func(cand []int) bool {
		return slices.Contains(cand, 1) && slices.Contains(cand, 3) &&
			(slices.Contains(cand, 0) || !slices.Contains(cand, 2))
	}
	got := DeleteChunks(upTo(4), keep)
	if want := []int{1, 3}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDeleteChunksNeverDeletesAfterRefusal: a keep that refuses every
// candidate once its budget is spent freezes the result at the last
// candidate it accepted.
func TestDeleteChunksNeverDeletesAfterRefusal(t *testing.T) {
	for budget := 0; budget <= 40; budget++ {
		calls := 0
		var last []int
		base := needs(4, 9, 20)
		keep := func(cand []int) bool {
			if calls >= budget {
				return false
			}
			calls++
			if !base(cand) {
				return false
			}
			last = slices.Clone(cand)
			return true
		}
		items := upTo(24)
		got := DeleteChunks(items, keep)
		want := last
		if want == nil {
			want = items
		}
		if !slices.Equal(got, want) {
			t.Errorf("budget %d: got %v, want the last accepted candidate %v", budget, got, want)
		}
	}
	if got := DeleteChunks(upTo(5), func([]int) bool { return false }); !slices.Equal(got, upTo(5)) {
		t.Errorf("keep refusing everything: got %v", got)
	}
}

func TestDeleteChunksDeterministic(t *testing.T) {
	run := func() ([]int, [][]int) {
		var offered [][]int
		keep := func(cand []int) bool {
			offered = append(offered, slices.Clone(cand))
			// Not monotone: accept by a fixed rule of the candidate alone.
			sum := 0
			for _, v := range cand {
				sum += v
			}
			return sum%3 != 1 && slices.Contains(cand, 11)
		}
		return DeleteChunks(upTo(29), keep), offered
	}
	got1, offered1 := run()
	got2, offered2 := run()
	if !slices.Equal(got1, got2) || !reflect.DeepEqual(offered1, offered2) {
		t.Fatalf("two runs differ:\n%v (%d candidates)\n%v (%d candidates)", got1, len(offered1), got2, len(offered2))
	}
}

type sized struct{ mag, floor int64 }

func TestHalveEachStopsAtFloor(t *testing.T) {
	size := func(s sized) (int64, int64) { return s.mag, s.floor }
	resize := func(s sized, mag int64) sized {
		s.mag = mag
		return s
	}
	items := []sized{{100, 1}, {5, 0}, {7, 3}, {9, 5}, {2, 2}, {1, 4}}
	var trail [][]int64
	got := HalveEach(items, size, resize, func(cand []sized) bool {
		mags := make([]int64, len(cand))
		for i, c := range cand {
			mags[i] = c.mag
		}
		trail = append(trail, mags)
		return true
	})
	want := []sized{{1, 1}, {0, 0}, {3, 3}, {5, 5}, {2, 2}, {1, 4}}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// 100 -> 50 25 12 6 3 1; 5 -> 2 1 0; 7 -> 3; 9 -> 5 (half is 4,
	// below the floor); at or below the floor nothing is offered.
	if len(trail) != 6+3+1+1 {
		t.Errorf("offered %d candidates, want 11: %v", len(trail), trail)
	}
	if items[0].mag != 100 {
		t.Errorf("input slice was written: %v", items)
	}

	// A refusal stops that item only; the next item still halves.
	got = HalveEach([]sized{{64, 1}, {8, 1}}, size, resize, func(cand []sized) bool {
		return cand[0].mag >= 16
	})
	if want := []sized{{16, 1}, {1, 1}}; !slices.Equal(got, want) {
		t.Errorf("with refusals: got %v, want %v", got, want)
	}
}

var errInvalid = errors.New("sample: invalid")

type sample struct {
	Schema string   `json:"schema"`
	N      int      `json:"n"`
	Tags   []string `json:"tags,omitempty"`
}

func (s *sample) Validate() error {
	if s.Schema != "sample/v1" || s.N <= 0 {
		return errInvalid
	}
	return nil
}

func TestCodecRoundTrip(t *testing.T) {
	s := &sample{Schema: "sample/v1", N: 3, Tags: []string{"a", "<b>"}}
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("}\n")) || !bytes.Contains(data, []byte("\n  \"n\": 3,\n")) {
		t.Errorf("not indented JSON with a trailing newline:\n%s", data)
	}
	back, err := Decode[sample](data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("encode/decode/encode not byte-identical:\n%s\nvs\n%s", data, again)
	}

	path := filepath.Join(t.TempDir(), "missing", "dirs", "s.json")
	if err := Save(path, s); err != nil {
		t.Fatalf("Save into missing directories: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("Save wrote %q (%v), want Encode's bytes", onDisk, err)
	}
	loaded, err := Load[sample](path)
	if err != nil || !reflect.DeepEqual(loaded, s) {
		t.Fatalf("Load = %+v, %v", loaded, err)
	}

	// WriteJSON skips validation but writes the same encoding.
	bad := &sample{N: -1}
	if err := Save(filepath.Join(t.TempDir(), "bad.json"), bad); !errors.Is(err, errInvalid) {
		t.Errorf("Save of an invalid artifact: %v", err)
	}
	rec := filepath.Join(t.TempDir(), "sweep", "rec.json")
	if err := WriteJSON(rec, bad); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got, _ := os.ReadFile(rec); string(got) != "{\n  \"schema\": \"\",\n  \"n\": -1\n}\n" {
		t.Errorf("WriteJSON wrote %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	_, err := Decode[sample]([]byte(`{"schema": "sample/v1", "n": `))
	if err == nil || !strings.Contains(err.Error(), "artifact.sample") {
		t.Errorf("malformed JSON: error %v does not name the type", err)
	}
	_, err = Decode[sample]([]byte(`{"schema": "sample/v1", "n": 0}`))
	if err != errInvalid {
		t.Errorf("invalid artifact: error %v, want the Validate error", err)
	}
	if _, err := Load[sample](filepath.Join(t.TempDir(), "none.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}
