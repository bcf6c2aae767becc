package obs

import (
	"fmt"
	"sort"
	"strings"
)

// This file scores the control plane against ground truth. The simulator
// is in the rare position of knowing exactly which VMs are antagonists
// and when they are active — the testbed registers every AddAntagonist
// call in a GroundTruth — so the audit-event stream (DESIGN.md §5.4) can
// be graded exactly: which caps landed on real antagonists, which hit
// innocent tenants, and how long detection took after an antagonist
// first turned on. Real deployments can only estimate these numbers;
// here they are a deterministic function of (events, truth), so two
// same-seed runs produce byte-identical scorecards.

// TruthVM is one ground-truth record: a VM the testbed booted as an
// antagonist (or a benign decoy), with its burst schedule expressed in
// simulation seconds. The periodic on/off pattern mirrors
// workloads.BurstPattern, so activity at any instant is computable
// without storing per-interval state.
type TruthVM struct {
	VM     string `json:"vm"`
	Server string `json:"server"`
	// Channel is the resource the VM genuinely harms: "io" (fio), "cpu"
	// (STREAM's memory-bandwidth pressure surfaces on the CPU channel),
	// or "" for benign decoys that should never be capped.
	Channel string `json:"channel,omitempty"`
	// StartSec/OnSec/OffSec encode the burst schedule: first activity at
	// StartSec, then OnSec active / OffSec idle repeating. OffSec==0
	// means always on after StartSec.
	StartSec float64 `json:"start_sec"`
	OnSec    float64 `json:"on_sec,omitempty"`
	OffSec   float64 `json:"off_sec,omitempty"`
}

// Antagonist reports whether the VM is a genuine antagonist (has a harm
// channel) as opposed to a benign decoy.
func (v TruthVM) Antagonist() bool { return v.Channel != "" }

// GroundTruth is the registry of truth records for one run, in
// registration order. The zero value is unusable; call NewGroundTruth.
type GroundTruth struct {
	vms  []TruthVM
	byVM map[string]int
}

// NewGroundTruth creates an empty registry.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{byVM: make(map[string]int)}
}

// Add registers a truth record. Later records for the same VM name
// replace earlier ones (testbeds never reuse names; replacement keeps
// the registry well-defined anyway). Nil-safe no-op.
func (g *GroundTruth) Add(v TruthVM) {
	if g == nil {
		return
	}
	if i, ok := g.byVM[v.VM]; ok {
		g.vms[i] = v
		return
	}
	g.byVM[v.VM] = len(g.vms)
	g.vms = append(g.vms, v)
}

// VMs returns the truth records in registration order (a copy).
func (g *GroundTruth) VMs() []TruthVM {
	if g == nil {
		return nil
	}
	return append([]TruthVM(nil), g.vms...)
}

// Lookup returns the truth record for a VM name.
func (g *GroundTruth) Lookup(vm string) (TruthVM, bool) {
	if g == nil {
		return TruthVM{}, false
	}
	i, ok := g.byVM[vm]
	if !ok {
		return TruthVM{}, false
	}
	return g.vms[i], true
}

// NumAntagonists counts registered genuine antagonists.
func (g *GroundTruth) NumAntagonists() int {
	if g == nil {
		return 0
	}
	n := 0
	for _, v := range g.vms {
		if v.Antagonist() {
			n++
		}
	}
	return n
}

// Scorecard grades one scheme's detection and capping decisions against
// ground truth. All fields are exact counts or exact sums over the
// audit-event stream; derived rates are recomputed by finish() so Merge
// can combine cards from independent runs.
type Scorecard struct {
	// Scheme labels the card (e.g. "PerfCloud" or "terasort/CUBIC").
	Scheme string `json:"scheme,omitempty"`

	// Ground-truth denominators.
	TotalAntagonists int `json:"total_antagonists"`
	// DetectedAntagonists counts antagonists that appeared in an
	// identify event's antagonist lists or received a cap.
	DetectedAntagonists int `json:"detected_antagonists"`

	// Cap accounting. CappedVMs/AntagonistCappedVMs count distinct VMs;
	// TrueCaps/FalseCaps count individual cap events.
	CappedVMs           int `json:"capped_vms"`
	AntagonistCappedVMs int `json:"antagonist_capped_vms"`
	TrueCaps            int `json:"true_caps"`
	FalseCaps           int `json:"false_caps"`
	Migrations          int `json:"migrations"`

	// Derived rates (recomputed from the counts above).
	// Precision = antagonist capped VMs / capped VMs.
	Precision float64 `json:"precision"`
	// Recall = detected antagonists / total antagonists.
	Recall float64 `json:"recall"`
	// FalseCapRate = false cap events / total cap events.
	FalseCapRate float64 `json:"false_cap_rate"`

	// Latency: per detected antagonist, the gap between its first
	// ground-truth activity and the first identify/cap naming it.
	// TimeToDetectSum is the exact sum; MeanTimeToDetectSec the mean.
	TimeToDetectSum     float64 `json:"time_to_detect_sum_sec"`
	MeanTimeToDetectSec float64 `json:"mean_time_to_detect_sec"`

	// Dwell: total simulated seconds VMs spent under a cap, per
	// (VM, resource) episode from cap engagement to release (episodes
	// still open at the end of the run are closed at the run horizon).
	// FalseCapDwellSec is the share of that spent on innocent VMs.
	CapDwellSec      float64 `json:"cap_dwell_sec"`
	FalseCapDwellSec float64 `json:"false_cap_dwell_sec"`

	// JCTRecovery compares the scheme's victim completion times against
	// the interference-free baseline: total baseline JCT over total
	// scheme JCT (1.0 = fully recovered, smaller = residual slowdown).
	// Filled by the experiment drivers, which own the baseline runs.
	JCTRecovery float64 `json:"jct_recovery,omitempty"`
}

// finish recomputes the derived rates from the raw counts.
func (s *Scorecard) finish() {
	s.Precision, s.Recall, s.FalseCapRate, s.MeanTimeToDetectSec = 0, 0, 0, 0
	if s.CappedVMs > 0 {
		s.Precision = float64(s.AntagonistCappedVMs) / float64(s.CappedVMs)
	}
	if s.TotalAntagonists > 0 {
		s.Recall = float64(s.DetectedAntagonists) / float64(s.TotalAntagonists)
	}
	if caps := s.TrueCaps + s.FalseCaps; caps > 0 {
		s.FalseCapRate = float64(s.FalseCaps) / float64(caps)
	}
	if s.DetectedAntagonists > 0 {
		s.MeanTimeToDetectSec = s.TimeToDetectSum / float64(s.DetectedAntagonists)
	}
}

// Merge folds another card (an independent run of the same scheme) into
// s and recomputes the derived rates. JCT recovery is averaged over the
// cards that reported one.
func (s *Scorecard) Merge(o Scorecard) {
	if s.JCTRecovery > 0 && o.JCTRecovery > 0 {
		s.JCTRecovery = (s.JCTRecovery + o.JCTRecovery) / 2
	} else if o.JCTRecovery > 0 {
		s.JCTRecovery = o.JCTRecovery
	}
	s.TotalAntagonists += o.TotalAntagonists
	s.DetectedAntagonists += o.DetectedAntagonists
	s.CappedVMs += o.CappedVMs
	s.AntagonistCappedVMs += o.AntagonistCappedVMs
	s.TrueCaps += o.TrueCaps
	s.FalseCaps += o.FalseCaps
	s.Migrations += o.Migrations
	s.TimeToDetectSum += o.TimeToDetectSum
	s.CapDwellSec += o.CapDwellSec
	s.FalseCapDwellSec += o.FalseCapDwellSec
	s.finish()
}

// String renders the card as a stable single-line summary, suitable for
// byte-comparison across same-seed runs.
func (s Scorecard) String() string {
	var b strings.Builder
	if s.Scheme != "" {
		fmt.Fprintf(&b, "%s: ", s.Scheme)
	}
	fmt.Fprintf(&b, "precision %.3f recall %.3f false-cap-rate %.3f", s.Precision, s.Recall, s.FalseCapRate)
	fmt.Fprintf(&b, " ttd %.1fs dwell %.1fs (false %.1fs)", s.MeanTimeToDetectSec, s.CapDwellSec, s.FalseCapDwellSec)
	fmt.Fprintf(&b, " antagonists %d/%d capped-vms %d caps %d/%d migrations %d",
		s.DetectedAntagonists, s.TotalAntagonists, s.CappedVMs, s.TrueCaps, s.FalseCaps, s.Migrations)
	if s.JCTRecovery > 0 {
		fmt.Fprintf(&b, " jct-recovery %.3f", s.JCTRecovery)
	}
	return b.String()
}

// Score grades an audit-event stream against ground truth. endSec is the
// run horizon used to close cap episodes still open when the run ended.
// The result is a pure function of its inputs: events arrive in
// simulation order (the engine ticks managers sequentially and caps are
// applied in sorted VM order), and the only map iterations are over
// sorted keys, so same-seed runs score byte-identically.
func Score(events []Event, truth *GroundTruth, endSec float64) Scorecard {
	var sc Scorecard
	sc.TotalAntagonists = truth.NumAntagonists()
	isAntagonist := func(vm string) bool {
		v, ok := truth.Lookup(vm)
		return ok && v.Antagonist()
	}

	type episode struct{ vm, res string }
	open := make(map[episode]float64)     // cap engagement time per live episode
	firstSeen := make(map[string]float64) // first identify/cap naming the VM
	capped := make(map[string]bool)
	note := func(vm string, t float64) {
		if _, ok := firstSeen[vm]; !ok {
			firstSeen[vm] = t
		}
	}

	for _, e := range events {
		switch e.Type {
		case EventIdentify:
			for _, vm := range e.IOAntagonists {
				note(vm, e.T)
			}
			for _, vm := range e.CPUAntagonists {
				note(vm, e.T)
			}
		case EventCap:
			note(e.VM, e.T)
			if isAntagonist(e.VM) {
				sc.TrueCaps++
			} else {
				sc.FalseCaps++
			}
			if !capped[e.VM] {
				capped[e.VM] = true
				sc.CappedVMs++
				if isAntagonist(e.VM) {
					sc.AntagonistCappedVMs++
				}
			}
			k := episode{e.VM, e.Res}
			if _, live := open[k]; !live {
				open[k] = e.T
			}
		case EventRelease:
			k := episode{e.VM, e.Res}
			if t0, live := open[k]; live {
				sc.addDwell(e.VM, e.T-t0, isAntagonist)
				delete(open, k)
			}
		case EventMigrate:
			sc.Migrations++
		}
	}

	// Close episodes that were still capped at the run horizon, in
	// sorted order so the float sums are reproducible.
	stillOpen := make([]episode, 0, len(open))
	for k := range open {
		stillOpen = append(stillOpen, k)
	}
	sort.Slice(stillOpen, func(i, j int) bool {
		if stillOpen[i].vm != stillOpen[j].vm {
			return stillOpen[i].vm < stillOpen[j].vm
		}
		return stillOpen[i].res < stillOpen[j].res
	})
	for _, k := range stillOpen {
		if d := endSec - open[k]; d > 0 {
			sc.addDwell(k.vm, d, isAntagonist)
		}
	}

	// Detection latency per antagonist, in registration order.
	for _, v := range truth.VMs() {
		if !v.Antagonist() {
			continue
		}
		t, ok := firstSeen[v.VM]
		if !ok {
			continue
		}
		sc.DetectedAntagonists++
		if d := t - v.StartSec; d > 0 {
			sc.TimeToDetectSum += d
		}
	}

	sc.finish()
	return sc
}

func (s *Scorecard) addDwell(vm string, d float64, isAntagonist func(string) bool) {
	s.CapDwellSec += d
	if !isAntagonist(vm) {
		s.FalseCapDwellSec += d
	}
}
