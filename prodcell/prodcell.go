// Package prodcell exposes the paper's §4 industrial production-cell case
// study: a simulated plant (feed belt, elevating rotary table, two-armed
// robot, press, deposit belt) and the nested-CA-action control program
// whose eight controller threads drive it, with the Figure 7 exception
// graph recovering from injected device faults.
//
// Build the plant and controller on a caaction.System:
//
//	sys, _ := caaction.New()
//	plant := prodcell.NewPlant(sys, prodcell.DefaultPlantConfig())
//	ctl, _ := prodcell.NewController(sys, plant, prodcell.DefaultControlConfig())
//	report := ctl.RunCycle()
package prodcell

import (
	"caaction"
	"caaction/internal/control"
	iprod "caaction/internal/prodcell"
	"caaction/internal/transport"
)

// Plant is the simulated production cell: device axes with motors and
// sensors, metal blanks, fault injection and safety-invariant checking.
type Plant = iprod.Plant

// PlantConfig tunes the plant's movement and sensing times.
type PlantConfig = iprod.Config

// Blank is one metal plate moving through the cell.
type Blank = iprod.Blank

// Axes of the cell's devices. Each axis moves between named positions.
const (
	AxisTableVert   = iprod.AxisTableVert
	AxisTableRot    = iprod.AxisTableRot
	AxisRobot       = iprod.AxisRobot
	AxisArm1        = iprod.AxisArm1
	AxisArm2        = iprod.AxisArm2
	AxisPress       = iprod.AxisPress
	AxisFeedBelt    = iprod.AxisFeedBelt
	AxisDepositBelt = iprod.AxisDepositBelt
)

// Blank locations.
const (
	LocFeedBelt    = iprod.LocFeedBelt
	LocTable       = iprod.LocTable
	LocArm1        = iprod.LocArm1
	LocArm2        = iprod.LocArm2
	LocPress       = iprod.LocPress
	LocDepositBelt = iprod.LocDepositBelt
	LocContainer   = iprod.LocContainer
	LocFloor       = iprod.LocFloor
)

// Fault kinds injectable with Plant.Inject, matching the primitive
// exceptions of Figure 7.
const (
	FaultMotorStop   = iprod.FaultMotorStop
	FaultMotorNoMove = iprod.FaultMotorNoMove
	FaultSensorStuck = iprod.FaultSensorStuck
	FaultLostPlate   = iprod.FaultLostPlate
)

// DefaultPlantConfig returns the reference plant timings.
func DefaultPlantConfig() PlantConfig { return iprod.DefaultConfig() }

// NewPlant creates a plant driven by the system's clock.
func NewPlant(sys *caaction.System, cfg PlantConfig) *Plant {
	return iprod.New(sys.Clock(), cfg)
}

// Controller owns the eight controller threads and the nested CA-action
// definitions of the §4 control program.
type Controller = control.Controller

// ControlConfig tunes the controller: sensor timeouts, polling, and the
// control-software fault injections of the case study.
type ControlConfig = control.Config

// Report is the outcome of one production cycle: per-thread Perform results
// and the exceptions each thread's handlers were invoked for.
type Report = control.Report

// DefaultControlConfig matches DefaultPlantConfig timings.
func DefaultControlConfig() ControlConfig { return control.DefaultConfig() }

// Threads lists the controller thread identifiers in creation order.
func Threads() []string { return control.Threads() }

// MoveLoadedTableGraph builds the Figure 7 exception graph.
func MoveLoadedTableGraph() *caaction.Graph { return control.MoveLoadedTableGraph() }

// NewController builds the action specs of a controller whose threads run
// on the system, each cycle as one action instance.
func NewController(sys *caaction.System, plant *Plant, cfg ControlConfig) (*Controller, error) {
	return control.New(sys.Runtime(), transport.NewMux(sys.Clock(), sys.Network()), plant, cfg)
}
