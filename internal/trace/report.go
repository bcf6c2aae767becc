package trace

// Report rendering: per-job "where did the time go" tables and the
// critical path through each job's sequential waves, built from the span
// tree. Both render through Table, so psim can emit aligned text or CSV.

// jobAgg is one job's aggregated attribution.
type jobAgg struct {
	span   *Span
	totals PhaseTotals
}

// aggregate folds every closed attempt/task span into its root job. A
// span's root is found by walking Parent links; orphan task sets (traced
// with parent NoSpan) act as their own roots.
func (t *Tracer) aggregate() []*jobAgg {
	if t == nil {
		return nil
	}
	root := make([]SpanID, t.n)
	byRoot := map[SpanID]*jobAgg{}
	var jobs []*jobAgg
	for i := range root {
		s := t.at(i)
		r := s.ID
		if s.Parent != NoSpan {
			r = root[s.Parent] // parents precede children in creation order
		}
		root[i] = r
		if s.Parent == NoSpan {
			agg := &jobAgg{span: s}
			byRoot[r] = agg
			jobs = append(jobs, agg)
			continue
		}
		agg := byRoot[r]
		if agg == nil || s.Open {
			continue
		}
		switch s.Kind {
		case KindTask:
			agg.totals.QueueWaitSec += s.QueueWaitSec
		case KindAttempt:
			agg.totals.Attempts++
			wall := s.WallSec()
			agg.totals.WallSec += wall
			for p := range s.Phases {
				agg.totals.Phases[p] += s.Phases[p]
			}
			agg.totals.CacheSavedSec += s.CacheSavedSec
			if s.Killed {
				if s.Speculative {
					agg.totals.SpeculativeWasteSec += wall
				} else {
					agg.totals.KilledWasteSec += wall
				}
			}
		}
	}
	return jobs
}

// PhaseReport renders the per-job attribution table: where every job's
// attempt-seconds went, plus queue wait, speculative/killed waste and
// page-cache savings. Works on a nil tracer (empty table).
func (t *Tracer) PhaseReport() *Table {
	tab := New("Phase attribution: per-job attempt-seconds by phase",
		"job", "jct_s", "attempts", "queue_s",
		"disk_wait_s", "disk_throttled_s", "cache_read_s",
		"cpu_s", "cpi_stall_s", "idle_s",
		"spec_waste_s", "kill_waste_s", "cache_saved_s")
	for _, j := range t.aggregate() {
		pt := j.totals
		tab.Addf(j.span.Name, j.span.WallSec(), pt.Attempts, pt.QueueWaitSec,
			pt.Phases[PhaseDiskWait], pt.Phases[PhaseDiskThrottled], pt.Phases[PhaseCacheRead],
			pt.Phases[PhaseCPU], pt.Phases[PhaseCPIStall], pt.Phases[PhaseIdle],
			pt.SpeculativeWasteSec, pt.KilledWasteSec, pt.CacheSavedSec)
	}
	return tab
}

// CriticalPathReport renders, for each job, the chain of waves/stages
// with the attempt that finished each wave — the span whose phases
// explain the wave's duration, since a wave (strict barrier) ends only
// when its last task does. Killed attempts never gate a barrier and are
// excluded. Works on a nil tracer (empty table).
func (t *Tracer) CriticalPathReport() *Table {
	tab := New("Critical path: the attempt that closed each wave/stage barrier",
		"job", "wave", "attempt", "start_s", "end_s", "wall_s",
		"disk_wait_s", "disk_throttled_s", "cache_read_s",
		"cpu_s", "cpi_stall_s", "idle_s")
	if t == nil {
		return tab
	}
	// jobOf resolves a task set's job name (its own when standalone).
	jobOf := func(s *Span) string {
		if s.Parent != NoSpan {
			return t.at(int(s.Parent)).Name
		}
		return s.Name
	}
	// critical[setID] is the latest-ending surviving attempt of the set.
	critical := map[SpanID]*Span{}
	for i := 0; i < t.n; i++ {
		a := t.at(i)
		if a.Kind != KindAttempt || a.Open || a.Killed || a.Parent == NoSpan {
			continue
		}
		task := t.at(int(a.Parent))
		if task.Parent == NoSpan {
			continue
		}
		set := task.Parent
		if cur := critical[set]; cur == nil || a.EndSec > cur.EndSec {
			critical[set] = a
		}
	}
	for i := 0; i < t.n; i++ {
		set := t.at(i)
		if set.Kind != KindTaskSet {
			continue
		}
		a := critical[set.ID]
		if a == nil {
			continue
		}
		tab.Addf(jobOf(set), set.Name, a.Name,
			a.StartSec, a.EndSec, a.WallSec(),
			a.Phases[PhaseDiskWait], a.Phases[PhaseDiskThrottled], a.Phases[PhaseCacheRead],
			a.Phases[PhaseCPU], a.Phases[PhaseCPIStall], a.Phases[PhaseIdle])
	}
	return tab
}
