// Planet scale: a 10,000-server cloud hosting one million VMs, of which
// only a small hot region (16 servers of Hadoop workers) does anything.
// This is the multi-tenant-cloud shape the paper's scheme must coexist
// with — fleets where almost every tenant is idle at any instant — and
// the setting the sharded cluster tick is built for: per-tick cost is
// O(active servers + servers/64), so a terasort on the hot region runs in
// seconds of wall clock even though every tick nominally covers all ten
// thousand servers.
//
// The cloud manager side scales the same way: the one million Boot calls
// each pick the least-loaded server from the hierarchical (zone → server)
// placement index in O(log servers) instead of rescanning the fleet's
// VMs.
//
// Telemetry follows the hierarchy too: FleetTelemetry exports gauges and
// time series per zone and per tick shard — never per server — so the
// Prometheus exposition for the whole fleet stays a few hundred samples
// instead of ten thousand.
//
// Run with: go run ./examples/planet_scale
//
//	-servers N   fleet size            (default 10000, at least 1)
//	-vms N       total VMs to host     (default 1000000, not negative)
//	-hot N       busy Hadoop servers   (default 16, at most -servers)
//	-jobs N      terasort jobs to run  (default 2, at least 1)
//
// Any other value is a usage error and exits with status 2.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
)

// options holds the command-line flags.
type options struct {
	servers, vms, hot, jobs int
	seed                    int64
}

// validate rejects flag values that describe no fleet or no run.
func (o options) validate() error {
	switch {
	case o.servers < 1:
		return fmt.Errorf("-servers must be at least 1, got %d", o.servers)
	case o.vms < 0:
		return fmt.Errorf("-vms must not be negative, got %d", o.vms)
	case o.hot < 1 || o.hot > o.servers:
		return fmt.Errorf("-hot must be between 1 and -servers (%d), got %d", o.servers, o.hot)
	case o.jobs < 1:
		return fmt.Errorf("-jobs must be at least 1, got %d", o.jobs)
	}
	return nil
}

func main() {
	var o options
	flag.IntVar(&o.servers, "servers", 10000, "total servers in the fleet")
	flag.IntVar(&o.vms, "vms", 1000000, "total VMs hosted across the fleet")
	flag.IntVar(&o.hot, "hot", 16, "servers running the Hadoop workers")
	flag.IntVar(&o.jobs, "jobs", 2, "terasort jobs to run on the hot region")
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "planet_scale:", err)
		flag.Usage()
		os.Exit(2)
	}

	// The hot region: a normal testbed — Hadoop worker VMs, DFS, job
	// tracker — confined to the first -hot servers.
	start := time.Now()
	tb := experiments.NewTestbed(experiments.TestbedConfig{
		Seed:             o.seed,
		Servers:          o.hot,
		WorkersPerServer: 8,
	})
	tb.MustInput("input", 640<<20)

	// The rest of the planet: cold servers and idle tenant VMs, placed by
	// the cloud manager's spread scheduler.
	tb.CM.ProvisionServers(o.servers - o.hot)
	for i := tb.Clus.NumVMs(); i < o.vms; i++ {
		if _, err := tb.CM.Boot(cloud.VMSpec{Name: fmt.Sprintf("tenant-%07d", i)}); err != nil {
			panic(err)
		}
	}
	build := time.Since(start)
	zones := tb.CM.Zones()
	fmt.Printf("== fleet: %d servers in %d zones, %d VMs (built in %.1fs) ==\n",
		tb.Clus.NumServers(), len(zones), tb.Clus.NumVMs(), build.Seconds())

	// Fleet telemetry at hierarchy granularity: one sample per zone and
	// per shard. A Sample is O(zones + shards), so taking one per job is
	// noise next to the simulation itself.
	reg := obs.NewRegistry()
	sr := obs.NewSeriesRegistry(0)
	ft := tb.FleetTelemetry(reg, sr)
	ft.Sample(tb.Eng.Clock().Seconds())

	start = time.Now()
	var jct float64
	for j := 0; j < o.jobs; j++ {
		job := tb.RunMR(mapreduce.Terasort("input", 10), time.Hour)
		jct += job.JCT()
		ft.Sample(tb.Eng.Clock().Seconds())
	}
	run := time.Since(start)
	fmt.Printf("%d terasort jobs on the hot region: mean JCT %.1fs simulated, %.2fs wall\n",
		o.jobs, jct/float64(o.jobs), run.Seconds())

	fp := tb.Clus.FastPathStats()
	fmt.Printf("active servers at the end: %d of %d (%d shards)\n",
		tb.Clus.ActiveServers(), tb.Clus.NumServers(), tb.Clus.ShardCount())
	fmt.Printf("fast paths: %d whole-shard skips, %d quiescent grant skips, %d stride-elided ticks\n",
		fp.ShardSkips, fp.QuiescentSkips, fp.StrideSkips)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	samples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	fmt.Printf("fleet telemetry: %d /metrics samples and %d time series for %d servers (%d zones + %d shards)\n",
		samples, len(sr.Keys()), tb.Clus.NumServers(), len(zones), tb.Clus.ShardCount())
}
