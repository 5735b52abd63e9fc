package backend

import (
	"fmt"
	"testing"

	"edm/internal/circuit"
	"edm/internal/rng"
)

func TestProgramCacheReuse(t *testing.T) {
	m := noisyMachine(7)
	c := bell(t)
	if _, err := m.Run(c, 50, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	st := m.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss, 0 hits, 1 entry", st)
	}
	// A semantically identical circuit built separately hits the cache...
	c2 := bell(t)
	c2.Name = "same circuit, different name"
	if _, err := m.Run(c2, 50, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	st = m.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after identical rerun: %+v, want 1 hit, 1 miss", st)
	}
	// ...and a different circuit does not.
	c3 := circuit.New(2, 2)
	c3.H(0).CX(0, 1).X(0).MeasureAll()
	if _, err := m.Run(c3, 50, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	st = m.CacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after distinct circuit: %+v, want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestProgramCacheDeterminism(t *testing.T) {
	// Cached-program runs must be bit-identical to fresh-compile runs.
	c := bell(t)
	fresh := noisyMachine(7)
	want, err := fresh.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cached := noisyMachine(7)
	if _, err := cached.Run(c, 500, rng.New(1)); err != nil { // warm the cache
		t.Fatal(err)
	}
	got, err := cached.Run(c, 500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if cached.CacheStats().Hits == 0 {
		t.Fatal("second run did not hit the cache")
	}
	for _, e := range want.Sorted() {
		if got.Count(e.Value) != e.Count {
			t.Fatalf("cached run diverged at %v: %d vs %d", e.Value, got.Count(e.Value), e.Count)
		}
	}
}

func TestProgramCacheEviction(t *testing.T) {
	m := noisyMachine(7)
	const extra = 5
	for i := 0; i < programCacheCap+extra; i++ {
		c := circuit.New(2, 2)
		c.H(0).RZ(0, float64(i)*0.01).CX(0, 1).MeasureAll()
		if _, err := m.Run(c, 10, rng.New(uint64(i))); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
	}
	st := m.CacheStats()
	if st.Entries > programCacheCap {
		t.Fatalf("cache grew past its bound: %+v", st)
	}
	if st.Evictions != extra {
		t.Fatalf("evictions = %d, want %d (%+v)", st.Evictions, extra, st)
	}
	if st.Misses != programCacheCap+extra {
		t.Fatalf("misses = %d, want %d", st.Misses, programCacheCap+extra)
	}
}

func TestProgramCacheConcurrent(t *testing.T) {
	// Hammer the cache from many goroutines across a small circuit set;
	// run with -race to check the locking discipline.
	m := noisyMachine(7)
	circuits := make([]*circuit.Circuit, 4)
	for i := range circuits {
		c := circuit.New(2, 2)
		c.H(0).RZ(0, float64(i)*0.1).CX(0, 1).MeasureAll()
		circuits[i] = c
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 8; i++ {
				if _, err := m.Run(circuits[(g+i)%len(circuits)], 20, rng.New(uint64(g*100+i))); err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %w", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := m.CacheStats()
	if st.Entries != len(circuits) {
		t.Fatalf("entries = %d, want %d (%+v)", st.Entries, len(circuits), st)
	}
	if st.Hits == 0 {
		t.Fatalf("no cache hits across 128 runs: %+v", st)
	}

	// Concurrent first runs of one new circuit share a single compile:
	// one miss, and every other run is a hit (a wait or a cached read).
	fresh := noisyMachine(7)
	c := circuit.New(2, 2)
	c.H(0).CX(0, 1).RZ(1, 0.3).MeasureAll()
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		go func(g int) {
			<-start
			_, err := fresh.Run(c, 20, rng.New(uint64(g)))
			errs <- err
		}(g)
	}
	close(start)
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := fresh.CacheStats(); st.Misses != 1 || st.Hits != 15 || st.Waits > st.Hits || st.Entries != 1 {
		t.Fatalf("16 concurrent first runs: %+v, want 1 miss, 15 hits, 1 entry", st)
	}
}
