package cloud

import (
	"testing"

	"perfcloud/internal/cluster"
)

func TestRebalanceHighPriorityMovesSmallerApp(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(3)
	// app-a: 3 VMs, app-b: 2 VMs — all packed on server-0.
	for i := 0; i < 3; i++ {
		mustBoot(t, m, VMSpec{Name: "a" + string(rune('0'+i)), ServerID: "server-0",
			Priority: cluster.HighPriority, AppID: "app-a"})
	}
	for i := 0; i < 2; i++ {
		mustBoot(t, m, VMSpec{Name: "b" + string(rune('0'+i)), ServerID: "server-0",
			Priority: cluster.HighPriority, AppID: "app-b"})
	}
	moved, err := m.RebalanceHighPriority("server-0")
	if err != nil {
		t.Fatal(err)
	}
	if moved == "" || moved[0] != 'b' {
		t.Errorf("moved %q, want a VM of the smaller app-b", moved)
	}
	vm := m.cluster.FindVM(moved)
	if vm.Server().ID() == "server-0" {
		t.Error("VM not actually moved")
	}
}

func TestRebalanceNoopCases(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(1)
	mustBoot(t, m, VMSpec{Name: "a0", ServerID: "server-0",
		Priority: cluster.HighPriority, AppID: "app-a"})
	// Single app: nothing to rebalance.
	if moved, err := m.RebalanceHighPriority("server-0"); err != nil || moved != "" {
		t.Errorf("single app: moved=%q err=%v", moved, err)
	}
	// Two apps but no other server to move to.
	mustBoot(t, m, VMSpec{Name: "b0", ServerID: "server-0",
		Priority: cluster.HighPriority, AppID: "app-b"})
	if moved, err := m.RebalanceHighPriority("server-0"); err != nil || moved != "" {
		t.Errorf("no destination: moved=%q err=%v", moved, err)
	}
	if _, err := m.RebalanceHighPriority("nope"); err == nil {
		t.Error("unknown server: want error")
	}
}

// TestProvisionServersWithAndDefaultOverride: ProvisionServersWith
// overrides the default hardware config for its batch only.
func TestProvisionServersWithAndDefaultOverride(t *testing.T) {
	_, m := setup(t)
	slow := cluster.DefaultServerConfig()
	slow.CPU.FreqHz = 1e9
	srvs := m.ProvisionServersWith(2, slow)
	if len(srvs) != 2 || srvs[0].CPUConfig().FreqHz != 1e9 {
		t.Errorf("custom config not applied: %+v", srvs[0].CPUConfig())
	}
	// ProvisionServers keeps the default config after a custom batch.
	srv := m.ProvisionServers(1)[0]
	if srv.CPUConfig() != cluster.DefaultServerConfig().CPU {
		t.Errorf("default config not applied: %+v", srv.CPUConfig())
	}
}
