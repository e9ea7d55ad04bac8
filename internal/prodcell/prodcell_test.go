package prodcell

import (
	"errors"
	"testing"
	"time"

	"caaction/internal/simenv"
	"caaction/internal/vclock"
)

func newPlant(t *testing.T) (*Plant, *simenv.Env) {
	t.Helper()
	env := simenv.New()
	return New(env.Clock, DefaultConfig()), env
}

func TestAxisMotionCompletes(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		if !p.At(AxisTableVert, "bottom") {
			t.Error("table not at bottom initially")
		}
		if err := p.Actuate(AxisTableVert, "top"); err != nil {
			t.Error(err)
		}
		if p.At(AxisTableVert, "top") {
			t.Error("arrived instantly")
		}
		if got := p.Position(AxisTableVert); got != "moving" {
			t.Errorf("position = %q", got)
		}
		env.Clock.Sleep(DefaultConfig().MoveTime + time.Millisecond)
		if !p.At(AxisTableVert, "top") {
			t.Error("table did not arrive")
		}
	})
}

func TestActuateValidation(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		if err := p.Actuate("ghost", "x"); !errors.Is(err, ErrUnknownAxis) {
			t.Errorf("err = %v", err)
		}
		if err := p.Actuate(AxisTableVert, "sideways"); !errors.Is(err, ErrbadTarget) {
			t.Errorf("err = %v", err)
		}
		if err := p.Actuate(AxisTableVert, "top"); err != nil {
			t.Error(err)
		}
		if err := p.Actuate(AxisTableVert, "bottom"); !errors.Is(err, ErrAxisBusy) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestMotorNoMoveFault(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		if err := p.Inject(FaultMotorNoMove, AxisTableVert); err != nil {
			t.Fatal(err)
		}
		if err := p.Actuate(AxisTableVert, "top"); err != nil {
			t.Fatal(err)
		}
		env.Clock.Sleep(time.Second)
		if !p.At(AxisTableVert, "bottom") {
			t.Error("axis moved despite m_nmove")
		}
		if got := p.Position(AxisTableVert); got != "bottom" {
			t.Errorf("encoder = %q", got)
		}
		// Fault is one-shot: a repair plus retry succeeds.
		if err := p.Actuate(AxisTableVert, "top"); err != nil {
			t.Fatal(err)
		}
		env.Clock.Sleep(time.Second)
		if !p.At(AxisTableVert, "top") {
			t.Error("retry did not move")
		}
	})
}

func TestMotorStopFaultAndRepair(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		_ = p.Inject(FaultMotorStop, AxisTableRot)
		_ = p.Actuate(AxisTableRot, "robot")
		env.Clock.Sleep(time.Second)
		if got := p.Position(AxisTableRot); got != "stalled" {
			t.Fatalf("encoder = %q, want stalled", got)
		}
		if p.At(AxisTableRot, "robot") || p.At(AxisTableRot, "feed") {
			t.Fatal("sensors report a position while stalled")
		}
		if err := p.Repair(AxisTableRot); err != nil {
			t.Fatal(err)
		}
		_ = p.Actuate(AxisTableRot, "robot")
		env.Clock.Sleep(time.Second)
		if !p.At(AxisTableRot, "robot") {
			t.Fatal("axis did not arrive after repair")
		}
	})
}

func TestStuckSensorEncoderDisagreement(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		_ = p.Inject(FaultSensorStuck, AxisTableVert)
		_ = p.Actuate(AxisTableVert, "top")
		env.Clock.Sleep(time.Second)
		if p.At(AxisTableVert, "top") {
			t.Fatal("stuck sensor reported position")
		}
		if got := p.Position(AxisTableVert); got != "top" {
			t.Fatalf("encoder = %q, want top (redundant reading)", got)
		}
		_ = p.Repair(AxisTableVert)
		if !p.At(AxisTableVert, "top") {
			t.Fatal("sensor still stuck after repair")
		}
	})
}

// runCycle drives one full fault-free production cycle through the plant
// primitives, returning the blank id.
func runCycle(t *testing.T, p *Plant, clk *vclock.Virtual) int {
	t.Helper()
	mv := DefaultConfig().MoveTime + time.Millisecond
	belt := DefaultConfig().BeltTime + time.Millisecond
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	id, err := p.NewBlank()
	step(err)
	step(p.Actuate(AxisFeedBelt, "delivered"))
	clk.Sleep(belt)
	step(p.TransferBeltToTable())
	step(p.ResetBelt(AxisFeedBelt))
	// Move loaded table: rotate and lift concurrently.
	step(p.Actuate(AxisTableRot, "robot"))
	step(p.Actuate(AxisTableVert, "top"))
	clk.Sleep(mv)
	// Robot picks the blank with arm1.
	step(p.Actuate(AxisArm1, "extended"))
	clk.Sleep(mv)
	step(p.Grab(AxisArm1))
	step(p.Actuate(AxisArm1, "retracted"))
	clk.Sleep(mv)
	// Table back while robot moves to press.
	step(p.Actuate(AxisTableRot, "feed"))
	step(p.Actuate(AxisTableVert, "bottom"))
	step(p.Actuate(AxisRobot, "press1"))
	clk.Sleep(mv)
	step(p.Actuate(AxisPress, "mid"))
	clk.Sleep(mv)
	step(p.Actuate(AxisArm1, "extended"))
	clk.Sleep(mv)
	step(p.Release(AxisArm1))
	step(p.Actuate(AxisArm1, "retracted"))
	clk.Sleep(mv)
	// Forge.
	step(p.Actuate(AxisPress, "closed"))
	clk.Sleep(mv)
	step(p.Actuate(AxisPress, "open"))
	clk.Sleep(mv)
	// Remove plate with arm2.
	step(p.Actuate(AxisRobot, "press2"))
	clk.Sleep(mv)
	step(p.Actuate(AxisArm2, "extended"))
	clk.Sleep(mv)
	step(p.Grab(AxisArm2))
	step(p.Actuate(AxisArm2, "retracted"))
	clk.Sleep(mv)
	// Deposit.
	step(p.Actuate(AxisRobot, "deposit"))
	clk.Sleep(mv)
	step(p.Actuate(AxisArm2, "extended"))
	clk.Sleep(mv)
	step(p.Release(AxisArm2))
	step(p.Actuate(AxisArm2, "retracted"))
	clk.Sleep(mv)
	step(p.Actuate(AxisDepositBelt, "delivered"))
	clk.Sleep(belt)
	step(p.Consume())
	step(p.Actuate(AxisRobot, "table"))
	clk.Sleep(mv)
	return id
}

func TestFullProductionCycle(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		id := runCycle(t, p, env.Clock)
		b, err := p.Blank(id)
		if err != nil {
			t.Fatal(err)
		}
		if b.Loc != LocContainer || !b.Forged {
			t.Fatalf("blank end state: %+v", b)
		}
		if v := p.Violations(); len(v) != 0 {
			t.Fatalf("safety violations: %v", v)
		}
	})
}

func TestMultipleCycles(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		for i := 0; i < 3; i++ {
			runCycle(t, p, env.Clock)
		}
		forged := 0
		for _, b := range p.Blanks() {
			if b.Loc == LocContainer && b.Forged {
				forged++
			}
		}
		if forged != 3 {
			t.Fatalf("forged = %d", forged)
		}
	})
}

func TestLostPlateFault(t *testing.T) {
	p, env := newPlant(t)
	mv := DefaultConfig().MoveTime + time.Millisecond
	env.Go(func() {
		id, _ := p.NewBlank()
		_ = p.Actuate(AxisFeedBelt, "delivered")
		env.Clock.Sleep(DefaultConfig().BeltTime + time.Millisecond)
		_ = p.TransferBeltToTable()
		_ = p.Actuate(AxisTableRot, "robot")
		_ = p.Actuate(AxisTableVert, "top")
		env.Clock.Sleep(mv)
		_ = p.Actuate(AxisArm1, "extended")
		env.Clock.Sleep(mv)
		if err := p.Grab(AxisArm1); err != nil {
			t.Fatal(err)
		}
		if !p.Holding(AxisArm1) {
			t.Fatal("arm1 not holding after grab")
		}
		_ = p.Inject(FaultLostPlate, AxisArm1)
		_ = p.Actuate(AxisArm1, "retracted")
		env.Clock.Sleep(mv)
		if p.Holding(AxisArm1) {
			t.Fatal("arm1 still holding after l_plate")
		}
		b, _ := p.Blank(id)
		if b.Loc != LocFloor {
			t.Fatalf("blank at %q, want floor", b.Loc)
		}
	})
}

func TestGrabReleaseValidation(t *testing.T) {
	p, env := newPlant(t)
	mv := DefaultConfig().MoveTime + time.Millisecond
	env.Go(func() {
		// Arm not extended.
		if err := p.Grab(AxisArm1); err == nil {
			t.Fatal("grab with retracted arm succeeded")
		}
		_ = p.Actuate(AxisArm1, "extended")
		env.Clock.Sleep(mv)
		// Nothing on the table.
		if err := p.Grab(AxisArm1); !errors.Is(err, ErrNothingToGrab) {
			t.Fatalf("err = %v", err)
		}
		if err := p.Release(AxisArm1); !errors.Is(err, ErrNotHolding) {
			t.Fatalf("err = %v", err)
		}
		// Arm2 over nothing at the current angle.
		if err := p.Grab(AxisArm2); err == nil {
			t.Fatal("grab with arm2 at table angle succeeded")
		}
	})
}

func TestSafetyViolationDetected(t *testing.T) {
	p, env := newPlant(t)
	mv := DefaultConfig().MoveTime + time.Millisecond
	env.Go(func() {
		_ = p.Actuate(AxisArm1, "extended")
		env.Clock.Sleep(mv)
		// Rotating the robot with arm1 extended is unsafe.
		_ = p.Actuate(AxisRobot, "press1")
		if v := p.Violations(); len(v) == 0 {
			t.Fatal("unsafe rotation not recorded")
		}
	})
}

func TestFeedBeltOccupied(t *testing.T) {
	p, env := newPlant(t)
	env.Go(func() {
		if _, err := p.NewBlank(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.NewBlank(); !errors.Is(err, ErrBeltOccupied) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestInjectValidation(t *testing.T) {
	p, _ := newPlant(t)
	if err := p.Inject(FaultLostPlate, AxisPress); err == nil {
		t.Fatal("l_plate on non-arm accepted")
	}
	if err := p.Inject(FaultMotorStop, "ghost"); err == nil {
		t.Fatal("fault on unknown axis accepted")
	}
	if err := p.Inject("weird", AxisPress); err == nil {
		t.Fatal("unknown fault accepted")
	}
	if err := p.Repair("ghost"); err == nil {
		t.Fatal("repair unknown axis accepted")
	}
}
