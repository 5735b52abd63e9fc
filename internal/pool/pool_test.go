package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSizeBounds(t *testing.T) {
	if Size() < 2 {
		t.Fatalf("pool size = %d, want >= 2", Size())
	}
}

func TestAcquireRelease(t *testing.T) {
	for i := 0; i < Size(); i++ {
		Acquire()
	}
	for i := 0; i < Size(); i++ {
		Release()
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d", w)
	}
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(1 << 20); w > runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers exceeded GOMAXPROCS: %d", w)
	}
}

func TestEachCoversAllItems(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 257
	var hits [n]atomic.Int32
	Each(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestEachPropagatesLowestPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		r := recover()
		if r != "boom-3" {
			t.Fatalf("recovered %v, want boom-3", r)
		}
	}()
	Each(16, func(i int) {
		if i == 3 || i == 11 {
			panic("boom-" + string(rune('0'+i%10)))
		}
	})
}

func TestEachZero(t *testing.T) {
	Each(0, func(int) { t.Fatal("called") })
	Each(-1, func(int) { t.Fatal("called") })
}

func TestBuffersReuse(t *testing.T) {
	var b Buffers[complex128]
	s := b.Get(16)
	if len(s) != 16 {
		t.Fatalf("Get(16) returned len %d", len(s))
	}
	s[3] = 7i
	b.Put(s)
	got := b.Get(16)
	if len(got) != 16 {
		t.Fatalf("reused Get(16) returned len %d", len(got))
	}
	// Different size classes never mix.
	if other := b.Get(8); len(other) != 8 {
		t.Fatalf("Get(8) returned len %d", len(other))
	}
	// Degenerate cases are no-ops.
	if b.Get(0) != nil {
		t.Fatal("Get(0) should be nil")
	}
	b.Put(nil)
}

func TestBuffersConcurrent(t *testing.T) {
	var b Buffers[int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 << uint(i%6)
				s := b.Get(n)
				if len(s) != n {
					panic("wrong length")
				}
				for j := range s {
					s[j] = j
				}
				b.Put(s)
			}
		}()
	}
	wg.Wait()
}

func TestFanCoversAllItems(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 37
	var hits [n]atomic.Int32
	var live, peak atomic.Int32
	Fan(n, func(i int) {
		cur := live.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		hits[i].Add(1)
		live.Add(-1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, hits[i].Load())
		}
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("%d items ran at once, want at most GOMAXPROCS=4", p)
	}
}

// TestFanPanicOrder: Fan re-raises the lowest-index panic in the
// caller, as the serial loop it replaces would have surfaced first.
func TestFanPanicOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	defer func() {
		if r := recover(); r != "cell-1" {
			t.Fatalf("recovered %v, want cell-1", r)
		}
	}()
	Fan(4, func(i int) {
		if i == 1 || i == 3 {
			panic("cell-" + string(rune('0'+i)))
		}
	})
}

// TestFanNestsWithEach: orchestration goroutines that each run a leaf
// fan-out must not deadlock the token pool, however many there are.
func TestFanNestsWithEach(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const cells, items = 3 * 4, 64
	var sums [cells]atomic.Int64
	Fan(cells, func(c int) {
		Each(items, func(i int) { sums[c].Add(int64(i)) })
	})
	for c := range sums {
		if got := sums[c].Load(); got != items*(items-1)/2 {
			t.Fatalf("cell %d summed %d", c, got)
		}
	}
}
