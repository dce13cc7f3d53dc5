package memory

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

func TestRegisterEmptyRead(t *testing.T) {
	r := NewRegister[int]()
	v, ok := r.Read(Free)
	if ok {
		t.Fatal("empty register reported written")
	}
	if v != 0 {
		t.Fatalf("empty register value %d", v)
	}
}

func TestRegisterWriteRead(t *testing.T) {
	r := NewRegister[string]()
	r.Write(Free, "a")
	if v, ok := r.Read(Free); !ok || v != "a" {
		t.Fatalf("got (%q, %v)", v, ok)
	}
	r.Write(Free, "b")
	if v, ok := r.Read(Free); !ok || v != "b" {
		t.Fatalf("got (%q, %v) after overwrite", v, ok)
	}
}

// TestObjectFootprint pins the per-object size: one state representation
// (the fields plus a mutex) and nothing else. Registers are the service's
// dominant retained allocation, so growth here is a heap regression.
func TestObjectFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"Register[struct{}]", unsafe.Sizeof(Register[struct{}]{}), 24},
		{"Register[int64]", unsafe.Sizeof(Register[int64]{}), 32},
		{"MaxRegister[int]", unsafe.Sizeof(MaxRegister[int]{}), 40},
	} {
		if tc.got != tc.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestRegisterOpsCount(t *testing.T) {
	r := NewRegister[int]()
	for i := 0; i < 5; i++ {
		r.Write(Free, i)
	}
	for i := 0; i < 3; i++ {
		r.Read(Free)
	}
	if got := r.Ops(); got != 8 {
		t.Fatalf("Ops = %d, want 8", got)
	}
}

func TestRegisterConcurrentAccess(t *testing.T) {
	// Race-detector exercise: many writers and readers on one register.
	r := NewRegister[int]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Write(Free, w*1000+i)
			}
		}()
	}
	for rd := 0; rd < 8; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if v, ok := r.Read(Free); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCompareEmptyAndWrite(t *testing.T) {
	r := NewRegister[int]()
	if v, won := r.CompareEmptyAndWrite(Free, 10); !won || v != 10 {
		t.Fatalf("first CEW got (%d, %v)", v, won)
	}
	if v, won := r.CompareEmptyAndWrite(Free, 20); won || v != 10 {
		t.Fatalf("second CEW got (%d, %v)", v, won)
	}
}

func TestCompareEmptyAndWriteSingleWinner(t *testing.T) {
	r := NewRegister[int]()
	var wg sync.WaitGroup
	winners := make([]bool, 16)
	for i := range winners {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, winners[i] = r.CompareEmptyAndWrite(Free, i)
		}()
	}
	wg.Wait()
	count := 0
	for _, w := range winners {
		if w {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d winners, want exactly 1", count)
	}
}

func TestRegisterArray(t *testing.T) {
	a := NewRegisterArray[int](4)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < 4; i++ {
		a.At(i).Write(Free, i*i)
	}
	for i := 0; i < 4; i++ {
		if v, ok := a.At(i).Read(Free); !ok || v != i*i {
			t.Fatalf("At(%d) = (%d, %v)", i, v, ok)
		}
	}
	if got := a.Ops(); got != 8 {
		t.Fatalf("array Ops = %d, want 8", got)
	}
}

func TestRegisterLastWriteWinsProperty(t *testing.T) {
	// Sequential property: after any sequence of writes, a read returns
	// the last written value.
	if err := quick.Check(func(writes []int) bool {
		r := NewRegister[int]()
		for _, w := range writes {
			r.Write(Free, w)
		}
		v, ok := r.Read(Free)
		if len(writes) == 0 {
			return !ok
		}
		return ok && v == writes[len(writes)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompareEmptyAndWriteCounters pins the metric attribution of both
// CompareEmptyAndWrite paths: installing a value counts as a write, and
// the no-install path — which only observes state — counts as a read.
func TestCompareEmptyAndWriteCounters(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	for _, tc := range []struct {
		name string
		ctx  Context
	}{
		{"locked", Free},
		{"exclusive", FreeExclusive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegister[int]()

			reads, writes := mRegRead.Value(), mRegWrite.Value()
			if v, ok := r.CompareEmptyAndWrite(tc.ctx, 7); !ok || v != 7 {
				t.Fatalf("install path = (%d, %v), want (7, true)", v, ok)
			}
			if d := mRegWrite.Value() - writes; d != 1 {
				t.Fatalf("install path write delta = %d, want 1", d)
			}
			if d := mRegRead.Value() - reads; d != 0 {
				t.Fatalf("install path read delta = %d, want 0", d)
			}

			reads, writes = mRegRead.Value(), mRegWrite.Value()
			if v, ok := r.CompareEmptyAndWrite(tc.ctx, 9); ok || v != 7 {
				t.Fatalf("no-install path = (%d, %v), want (7, false)", v, ok)
			}
			if d := mRegWrite.Value() - writes; d != 0 {
				t.Fatalf("no-install path write delta = %d, want 0", d)
			}
			if d := mRegRead.Value() - reads; d != 1 {
				t.Fatalf("no-install path read delta = %d, want 1", d)
			}

			if got := r.Ops(); got != 2 {
				t.Fatalf("Ops = %d, want 2", got)
			}
		})
	}
}
