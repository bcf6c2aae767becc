package cloud

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// bootFleetVMs bounds how many VMs one benchmark fleet receives before it
// is replaced, so long runs measure a fleet at planet density (25 VMs per
// server) instead of an ever-growing one.
const bootFleetVMs = 250000

// BenchmarkBoot measures one spread-placement Boot into a 10,000-server
// fleet: the heap root lookup and its O(log n) re-sift, and the VM's
// creation and registration in the cluster, whose registry insert is
// also the duplicate-name check (one probe per boot). Names are built
// before the timer starts, so the figure excludes formatting.
func BenchmarkBoot(b *testing.B) {
	const servers = 10000
	names := make([]string, bootFleetVMs)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%07d", i)
	}
	var m *Manager
	fresh := func() {
		eng := sim.NewEngine(100*time.Millisecond, 1)
		m = NewManager(cluster.New(), eng.RNG())
		m.ProvisionServers(servers)
	}
	b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		fresh()
		b.StartTimer()
		for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
			if k == bootFleetVMs {
				b.StopTimer()
				fresh()
				b.StartTimer()
				k = 0
			}
			if _, err := m.Boot(VMSpec{Name: names[k]}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
