// Migration escalation: two high-priority MapReduce applications are
// packed onto one server of a two-server cloud. Their mutual shuffle
// I/O raises the iowait-deviation signal, but there is no low-priority
// VM to throttle — so the PerfCloud node manager escalates to the cloud
// manager, which live-migrates VMs of one application to the idle
// server (the paper's §III-D2 complementary solution).
//
// Run with: go run ./examples/migration
//
// The migration-on and migration-off arms are independent engines and run
// concurrently; results are identical to a sequential run for the same
// seed (the simulation core's determinism contract, DESIGN.md §5.1).
package main

import (
	"fmt"

	"perfcloud/internal/experiments"
)

func main() {
	fmt.Println("== Two colliding high-priority apps on one server ==")
	r := experiments.Migration(3, experiments.Options{})
	fmt.Println(r.Table().String())
	if r.Migrations > 0 {
		fmt.Printf("The node manager escalated %d time(s); the apps now span %d servers\n",
			r.Migrations, r.FinalSpread)
		fmt.Printf("and mean job completion time dropped from %.1fs to %.1fs (%.0f%%).\n",
			r.JCTWithout, r.JCTWith, 100*(1-r.JCTWith/r.JCTWithout))
	} else {
		fmt.Println("No migration occurred — contention never persisted unresolved.")
	}
}
