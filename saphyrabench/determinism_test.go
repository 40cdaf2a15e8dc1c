package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"saphyra/internal/loadgen"
)

func TestRankQueriesAreAFunctionOfTheSeed(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := rankQuery(7, i, 9000), rankQuery(7, i, 9000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d differs between two draws with one seed", i)
		}
		if len(a.Targets) != rankTargets {
			t.Fatalf("query %d has %d targets, want %d", i, len(a.Targets), rankTargets)
		}
		seen := map[int32]bool{}
		for _, v := range a.Targets {
			if seen[int32(v)] {
				t.Fatalf("query %d repeats node %d", i, v)
			}
			seen[int32(v)] = true
		}
	}
	if reflect.DeepEqual(rankQuery(7, 0, 9000), rankQuery(8, 0, 9000)) {
		t.Error("seeds 7 and 8 draw the same first query")
	}
}

func TestSchedulesAreByteIdenticalPerSeed(t *testing.T) {
	ids := make([]int64, 9000)
	for i := range ids {
		ids[i] = int64(i)
	}
	for name, spec := range servingSpecs {
		build := func(seed, off int64) []byte {
			m := withSeedOffset(spec.mix(), off).Scale(closedRate, 2*time.Second)
			s, err := loadgen.Build(m, ids, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return s.Encode()
		}
		if !bytes.Equal(build(3, 0), build(3, 0)) {
			t.Errorf("%s: two schedules from seed 3 differ", name)
		}
		if bytes.Equal(build(3, 0), build(4, 0)) {
			t.Errorf("%s: seeds 3 and 4 give the same schedule", name)
		}
	}
}

func TestSeedOffsetOnlyMovesFreshSeeds(t *testing.T) {
	m := loadgen.MissHeavy()
	o := withSeedOffset(m, 1000)
	for i, c := range m.Classes {
		want := c.Seed
		if c.FreshSeed {
			want += 1000
		}
		if o.Classes[i].Seed != want {
			t.Errorf("class %s seed %d, want %d", c.Name, o.Classes[i].Seed, want)
		}
	}
	if m.Classes[0].Seed != loadgen.MissHeavy().Classes[0].Seed {
		t.Error("withSeedOffset modified its argument's classes")
	}
}

func TestPhasesNeverShareAFreshSeed(t *testing.T) {
	offs := []int64{offMeasured, offSaturation, offTraced}
	ids := make([]int64, 9000)
	for i := range ids {
		ids[i] = int64(i)
	}
	rig := &servingRig{spec: servingSpecs["serve-miss"], ids: ids}
	type key struct {
		class int
		seed  int64
	}
	owner := map[key]int{}
	for p, off := range offs {
		s, err := rig.schedule(9, false, 20*time.Second, off)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range requests(s) {
			if !s.Mix.Classes[ev.Class].FreshSeed {
				continue
			}
			k := key{ev.Class, ev.Seed}
			if q, ok := owner[k]; ok && q != p {
				t.Fatalf("phases %d and %d both send class %d seed %d", q, p, ev.Class, ev.Seed)
			}
			owner[k] = p
		}
	}
}
