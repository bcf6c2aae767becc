package mapreduce

import (
	"fmt"
	"testing"
	"time"
)

// Property-style invariants over the framework, swept across job shapes.

func TestPropertyJCTMonotoneInInputSize(t *testing.T) {
	jct := func(blocks int) float64 {
		h := newHarness(t, 6, nil)
		h.fs.Create("in", float64(blocks)*(64<<20))
		j := h.runJob(t, Terasort("in", blocks/2+1), time.Hour)
		return j.JCT()
	}
	prev := 0.0
	for _, blocks := range []int{2, 6, 12, 24} {
		got := jct(blocks)
		if got < prev {
			t.Errorf("JCT(%d blocks) = %v < JCT of smaller input %v", blocks, got, prev)
		}
		prev = got
	}
}

func TestPropertyEfficiencyNeverExceedsOne(t *testing.T) {
	for _, reduces := range []int{0, 1, 5} {
		h := newHarness(t, 4, nil)
		h.fs.Create("in", 320<<20)
		j := h.runJob(t, Wordcount("in", reduces), time.Hour)
		eff := j.Account(h.eng.Clock().Seconds()).Efficiency()
		if eff > 1+1e-9 || eff <= 0 {
			t.Errorf("reduces=%d: efficiency = %v", reduces, eff)
		}
	}
}

func TestPropertyEveryTaskExactlyOneWinner(t *testing.T) {
	h := newHarness(t, 6, nil)
	h.fs.Create("in", 640<<20)
	j := h.runJob(t, InvertedIndex("in", 7), time.Hour)
	for _, ts := range j.TaskSets() {
		for _, task := range ts.Tasks() {
			winners := 0
			for _, a := range task.Attempts() {
				if task.Completed() == a {
					winners++
				}
			}
			if winners != 1 {
				t.Errorf("task %s winners = %d", task.Spec().ID, winners)
			}
		}
	}
}

func TestPropertyMapCountsMatchBlocks(t *testing.T) {
	for _, mb := range []int{64, 100, 640, 1000} {
		h := newHarness(t, 6, nil)
		name := fmt.Sprintf("in-%d", mb)
		h.fs.Create(name, float64(mb)*(1<<20))
		j, err := h.jt.Submit(Terasort(name, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !h.eng.RunUntil(j.Done, time.Hour) {
			t.Fatalf("stuck at %v", j.State())
		}
		wantMaps := mb / 64
		if mb%64 != 0 {
			wantMaps++
		}
		if maps := j.TaskSets()[0].NumTasks(); maps != wantMaps {
			t.Errorf("%d MiB input: maps = %d, want %d", mb, maps, wantMaps)
		}
	}
}
