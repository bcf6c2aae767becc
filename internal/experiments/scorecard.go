package experiments

import (
	"fmt"

	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// scorecardTable renders a set of cards as one table, skipping nils.
func scorecardTable(title string, cards []*obs.Scorecard) *trace.Table {
	t := trace.New(title,
		"scheme", "antagonists", "detected", "capped VMs", "precision", "recall",
		"false-cap rate", "mean TTD", "cap dwell", "false dwell", "JCT recovery")
	for _, sc := range cards {
		if sc == nil {
			continue
		}
		recovery := ""
		if sc.JCTRecovery > 0 {
			recovery = fmt.Sprintf("%.3f", sc.JCTRecovery)
		}
		t.Addf(sc.Scheme,
			sc.TotalAntagonists,
			sc.DetectedAntagonists,
			sc.CappedVMs,
			fmt.Sprintf("%.3f", sc.Precision),
			fmt.Sprintf("%.3f", sc.Recall),
			fmt.Sprintf("%.3f", sc.FalseCapRate),
			fmt.Sprintf("%.1fs", sc.MeanTimeToDetectSec),
			fmt.Sprintf("%.1fs", sc.CapDwellSec),
			fmt.Sprintf("%.1fs", sc.FalseCapDwellSec),
			recovery)
	}
	return t
}
