package control_test

import (
	"testing"
	"time"

	"caaction/internal/control"
	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/prodcell"
	"caaction/internal/protocol"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

type cellEnv struct {
	net   *transport.Sim
	plant *prodcell.Plant
	ctl   *control.Controller
}

func newCell(t *testing.T, cfg control.Config, coreCfg func(*core.Config)) *cellEnv {
	t.Helper()
	env := simenv.New(simenv.Latency(time.Millisecond))
	cc := core.Config{Clock: env.Clock, Metrics: env.Metrics}
	if coreCfg != nil {
		coreCfg(&cc)
	}
	rt, err := core.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	plant := prodcell.New(env.Clock, prodcell.DefaultConfig())
	ctl, err := control.New(rt, transport.NewMux(env.Clock, env.Net), plant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &cellEnv{net: env.Net, plant: plant, ctl: ctl}
}

func assertAllNil(t *testing.T, rep *control.Report) {
	t.Helper()
	for th, err := range rep.Outcomes {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
}

func assertAllSignal(t *testing.T, rep *control.Report, want except.ID) {
	t.Helper()
	for th, err := range rep.Outcomes {
		se, ok := core.Signalled(err)
		if !ok || se.Exc != want {
			t.Fatalf("%s: %v, want signalled %q", th, err, want)
		}
	}
}

func assertSafe(t *testing.T, env *cellEnv) {
	t.Helper()
	if v := env.plant.Violations(); len(v) != 0 {
		t.Fatalf("safety violations: %v", v)
	}
}

func forgedInContainer(env *cellEnv) int {
	n := 0
	for _, b := range env.plant.Blanks() {
		if b.Loc == prodcell.LocContainer && b.Forged {
			n++
		}
	}
	return n
}

func TestFaultFreeCycle(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	rep := env.ctl.RunCycle()
	assertAllNil(t, rep)
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 1 {
		t.Fatalf("forged plates delivered = %d, want 1", got)
	}
	if len(rep.Handled) != 0 {
		t.Fatalf("handlers ran in a fault-free cycle: %v", rep.Handled)
	}
}

func TestThreeFaultFreeCycles(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	for i := 0; i < 3; i++ {
		rep := env.ctl.RunCycle()
		assertAllNil(t, rep)
	}
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 3 {
		t.Fatalf("forged plates = %d, want 3", got)
	}
}

func TestVerticalMotorStopRecovered(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	if err := env.plant.Inject(prodcell.FaultMotorStop, prodcell.AxisTableVert); err != nil {
		t.Fatal(err)
	}
	rep := env.ctl.RunCycle()
	assertAllNil(t, rep) // forward recovery inside Move_Loaded_Table
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 1 {
		t.Fatalf("forged = %d", got)
	}
	found := false
	for _, id := range rep.Handled[control.ThTable] {
		if id == control.ExcVMStop {
			found = true
		}
	}
	if !found {
		t.Fatalf("vm_stop not handled: %v", rep.Handled)
	}
}

func TestRotationMotorNoMoveRecovered(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	_ = env.plant.Inject(prodcell.FaultMotorNoMove, prodcell.AxisTableRot)
	rep := env.ctl.RunCycle()
	assertAllNil(t, rep)
	assertSafe(t, env)
	found := false
	for _, id := range rep.Handled[control.ThTableSensor] {
		if id == control.ExcRMNoMove {
			found = true
		}
	}
	if !found {
		t.Fatalf("rm_nmove not handled: %v", rep.Handled)
	}
}

func TestDualMotorFailuresResolved(t *testing.T) {
	// The paper's flagship example: both table motors fail concurrently;
	// the two roles raise vm_stop and rm_stop at nearly the same time and
	// the graph resolves them to dual_motor_failures (Fig. 7).
	env := newCell(t, control.DefaultConfig(), nil)
	_ = env.plant.Inject(prodcell.FaultMotorStop, prodcell.AxisTableVert)
	_ = env.plant.Inject(prodcell.FaultMotorStop, prodcell.AxisTableRot)
	rep := env.ctl.RunCycle()
	assertAllNil(t, rep) // both handlers repair their own motor
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 1 {
		t.Fatalf("forged = %d", got)
	}
	for _, th := range []string{control.ThTable, control.ThTableSensor} {
		found := false
		for _, id := range rep.Handled[th] {
			if id == control.ExcDualMotor {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s did not handle dual_motor_failures: %v", th, rep.Handled)
		}
	}
}

func TestStuckSensorForwardRecovered(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	_ = env.plant.Inject(prodcell.FaultSensorStuck, prodcell.AxisTableVert)
	rep := env.ctl.RunCycle()
	assertAllNil(t, rep)
	assertSafe(t, env)
	found := false
	for _, id := range rep.Handled[control.ThTable] {
		if id == control.ExcSStuck {
			found = true
		}
	}
	if !found {
		t.Fatalf("s_stuck not handled: %v", rep.Handled)
	}
}

func TestLostPlateSignalledThroughAllLevels(t *testing.T) {
	env := newCell(t, control.DefaultConfig(), nil)
	_ = env.plant.Inject(prodcell.FaultLostPlate, prodcell.AxisArm1)
	rep := env.ctl.RunCycle()
	assertAllSignal(t, rep, control.SigLPlate)
	assertSafe(t, env)
	// The plate is on the floor, not forged.
	floor := false
	for _, b := range env.plant.Blanks() {
		if b.Loc == prodcell.LocFloor {
			floor = true
		}
	}
	if !floor {
		t.Fatal("lost plate not on the floor")
	}
	// Handlers ran at the unload, TPR and top levels on the robot thread.
	if len(rep.Handled[control.ThRobot]) < 3 {
		t.Fatalf("robot handled %v, want 3 levels", rep.Handled[control.ThRobot])
	}
}

func TestControlSoftwareFaultAbortsCycleWithUndo(t *testing.T) {
	cfg := control.DefaultConfig()
	cfg.InjectCSFault = true
	env := newCell(t, cfg, nil)
	rep := env.ctl.RunCycle()
	assertAllSignal(t, rep, except.Undo)
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 0 {
		t.Fatalf("forged = %d, want 0", got)
	}
}

func TestRuntimeExceptionAbortsCycleWithUndo(t *testing.T) {
	cfg := control.DefaultConfig()
	cfg.InjectRTExc = true
	env := newCell(t, cfg, nil)
	rep := env.ctl.RunCycle()
	assertAllSignal(t, rep, except.Undo)
	assertSafe(t, env)
}

func TestPlainGoErrorBecomesUniversalThenUndo(t *testing.T) {
	cfg := control.DefaultConfig()
	cfg.InjectPlainError = true
	env := newCell(t, cfg, nil)
	rep := env.ctl.RunCycle()
	assertAllSignal(t, rep, except.Undo)
	assertSafe(t, env)
}

func TestLostMessageDegradesToFailure(t *testing.T) {
	// The l_mes fault class: the table's exit votes inside
	// Move_Loaded_Table are lost; with the per-action SignalTimeout
	// extension the peer treats the missing vote as ƒ and the failure
	// propagates outward in a coordinated way.
	cfg := control.DefaultConfig()
	cfg.MLTSignalTimeout = 2 * time.Second
	env := newCell(t, cfg, nil)
	env.net.SetFault(func(from, to string, msg protocol.Message) transport.Fault {
		if msg.Kind == protocol.KindToBeSignalled && from == control.ThTable && msg.Action == "c1!Produce_Blank#1/Table_Press_Robot#1/Unload_Table#1/Move_Loaded_Table#1" {
			return transport.Drop
		}
		return transport.Deliver
	})
	rep := env.ctl.RunCycle()
	assertSafe(t, env)
	// The table sensor cannot hear the table's vote: it signals ƒ from
	// Move_Loaded_Table, which is raised as Move_Loaded_Table.failed in
	// Unload_Table and cascades outward; every thread ends the cycle
	// with the coordinated failure exception.
	assertAllSignal(t, rep, except.Failure)
}

func TestCycleAfterAbortedCycle(t *testing.T) {
	// An aborted cycle (cs_fault) leaves a blank on the table; after the
	// operator clears it, the next cycle succeeds.
	cfg := control.DefaultConfig()
	cfg.InjectCSFault = true
	env := newCell(t, cfg, nil)
	rep := env.ctl.RunCycle()
	assertAllSignal(t, rep, except.Undo)

	for _, b := range env.plant.Blanks() {
		if b.Loc != prodcell.LocContainer {
			if err := env.plant.Remove(b.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The injection is one-shot; the second cycle runs clean.
	rep2 := env.ctl.RunCycle()
	assertAllNil(t, rep2)
	assertSafe(t, env)
	if got := forgedInContainer(env); got != 1 {
		t.Fatalf("forged = %d", got)
	}
}

func TestFigure7GraphShape(t *testing.T) {
	g := control.MoveLoadedTableGraph()
	if g.Len() != 14 { // 9 primitives + 4 resolvers + universal
		t.Fatalf("graph size = %d", g.Len())
	}
	got, _ := g.Resolve(control.ExcVMStop, control.ExcRMStop)
	if got != control.ExcDualMotor {
		t.Fatalf("vm+rm resolves to %q", got)
	}
	got, _ = g.Resolve(control.ExcSStuck, control.ExcLPlate)
	if got != control.ExcSensorPlate {
		t.Fatalf("s_stuck+l_plate resolves to %q", got)
	}
	got, _ = g.Resolve(control.ExcCSFault, control.ExcLMes)
	if got != control.ExcUnrelated {
		t.Fatalf("cs+l_mes resolves to %q", got)
	}
	// Three unrelated classes escalate to the universal exception.
	got, _ = g.Resolve(control.ExcVMStop, control.ExcLPlate, control.ExcCSFault)
	if got != except.Universal {
		t.Fatalf("triple resolves to %q", got)
	}
}
