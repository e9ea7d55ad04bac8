// Package control implements the paper's case-study control program (§4): a
// set of nested CA actions coordinating the production cell's devices
// through threads for each device and its sensors, with the Figure 7
// exception graph on the Move_Loaded_Table action and per-role recovery
// handlers.
//
// Action structure (Fig. 6):
//
//	Produce_Blank                                  (all 8 controller threads)
//	├── Load_Table          (feed belt, table, table sensor)
//	├── Table_Press_Robot   (table+sensor, robot+sensor, press+sensor)
//	│   ├── Unload_Table        (table+sensor, robot+sensor)
//	│   │   └── Move_Loaded_Table   (table, table sensor)   ← Fig. 7 graph
//	│   ├── Pressing            (robot+sensor, press+sensor)
//	│   └── Remove_Plate        (robot+sensor, press+sensor)
//	└── Deposit_Plate       (robot+sensor, deposit belt)
//
// Recovery strategy (documented deviations in DESIGN.md): motor faults and
// stuck sensors are forward-recovered inside Move_Loaded_Table (repair,
// re-actuate, verify on the redundant encoder); a lost plate is signalled as
// L_PLATE through every nesting level, each level's handlers making their
// devices safe first; unrecoverable faults (control-software faults, lost
// messages, runtime exceptions) have no handlers and therefore abort the
// cycle with the undo exception µ, which cascades to the top.
package control

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/prodcell"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

// Thread identifiers of the controller.
const (
	ThFeedBelt    = "belt_f"
	ThDepositBelt = "belt_d"
	ThTable       = "table"
	ThTableSensor = "table_s"
	ThRobot       = "robot"
	ThRobotSensor = "robot_s"
	ThPress       = "press"
	ThPressSensor = "press_s"
)

// Threads lists all controller thread identifiers.
func Threads() []string {
	return []string{
		ThFeedBelt, ThDepositBelt, ThTable, ThTableSensor,
		ThRobot, ThRobotSensor, ThPress, ThPressSensor,
	}
}

// Exceptions of the Move_Loaded_Table action (Figure 7) and the interface
// exceptions of the §4 nesting chain.
const (
	ExcVMStop   except.ID = "vm_stop"
	ExcRMStop   except.ID = "rm_stop"
	ExcVMNoMove except.ID = "vm_nmove"
	ExcRMNoMove except.ID = "rm_nmove"
	ExcSStuck   except.ID = "s_stuck"
	ExcLPlate   except.ID = "l_plate"
	ExcCSFault  except.ID = "cs_fault"
	ExcLMes     except.ID = "l_mes"
	ExcRTExc    except.ID = "rt_exc"

	ExcDualMotor   except.ID = "dual_motor_failures"
	ExcTableSensor except.ID = "table_and_sensor_failures"
	ExcSensorPlate except.ID = "sensor_or_lost_plate"
	ExcUnrelated   except.ID = "unrelated_exceptions"

	ExcNoGrab  except.ID = "no_grab"
	ExcNoBlank except.ID = "no_blank"

	SigLPlate  except.ID = "L_PLATE"
	SigNCSFail except.ID = "NCS_FAIL"
	SigTSensor except.ID = "T_SENSOR"
	SigA1Senor except.ID = "A1_SENSOR"
)

// errSensorTimeout distinguishes a missed sensor reading from runtime
// control errors.
var errSensorTimeout = errors.New("control: sensor timeout")

// Config tunes the controller.
type Config struct {
	// SensorTimeout bounds every sensor wait; a miss triggers diagnosis
	// and an exception. Must exceed the plant's MoveTime.
	SensorTimeout time.Duration
	// Poll is the sensor polling interval (an interruption point).
	Poll time.Duration
	// InjectCSFault makes the table role raise cs_fault inside the next
	// Move_Loaded_Table execution (the §4 control-software-fault class).
	// One-shot: consumed when it fires.
	InjectCSFault bool
	// InjectRTExc makes the table role raise rt_exc inside the next
	// Move_Loaded_Table execution (the §4 runtime-exception class).
	// One-shot.
	InjectRTExc bool
	// InjectPlainError makes the table role fail with an undeclared Go
	// error, exercising the universal-exception path. One-shot.
	InjectPlainError bool
	// MLTSignalTimeout, when positive, bounds the Move_Loaded_Table exit
	// wait so lost exit votes (the l_mes fault class) degrade to ƒ at
	// that level instead of hanging the cell.
	MLTSignalTimeout time.Duration
}

// DefaultConfig matches prodcell.DefaultConfig timings.
func DefaultConfig() Config {
	return Config{SensorTimeout: 400 * time.Millisecond, Poll: 10 * time.Millisecond}
}

// MoveLoadedTableGraph builds the Figure 7 exception graph.
func MoveLoadedTableGraph() *except.Graph {
	g, err := except.NewBuilder("Move_Loaded_Table").
		Cover(ExcDualMotor, ExcVMStop, ExcRMStop, ExcVMNoMove, ExcRMNoMove).
		Cover(ExcTableSensor, ExcDualMotor, ExcSStuck).
		Cover(ExcSensorPlate, ExcSStuck, ExcLPlate).
		Cover(ExcUnrelated, ExcCSFault, ExcLMes, ExcRTExc).
		Cover(except.Universal, ExcTableSensor, ExcSensorPlate, ExcUnrelated).
		Build()
	if err != nil {
		panic(fmt.Sprintf("control: Fig.7 graph invalid: %v", err))
	}
	return g
}

// Report is the outcome of one production cycle.
type Report struct {
	// Outcomes maps thread id to its Perform result (nil, or the ε/µ/ƒ it
	// signalled as a *core.SignalledError).
	Outcomes map[string]error
	// Handled records, per thread, the resolved exceptions its handlers
	// were invoked for, across all nesting levels, in order.
	Handled map[string][]except.ID
}

// Signalled returns the distinct non-nil outcome IDs (for assertions).
func (r *Report) Signalled() map[except.ID]int {
	out := make(map[except.ID]int)
	for _, err := range r.Outcomes {
		if se, ok := core.Signalled(err); ok {
			out[se.Exc]++
		}
	}
	return out
}

// Controller owns the eight controller threads and the action definitions.
type Controller struct {
	rt    *core.Runtime
	plant *prodcell.Plant
	cfg   Config

	// mux carries every cycle's threads; cycles counts the cycles run,
	// which name their instances ("c1", "c2", …).
	mux    *transport.Mux
	cycles int

	specProduce *core.Spec
	specLoad    *core.Spec
	specTPR     *core.Spec
	specUnload  *core.Spec
	specMLT     *core.Spec
	specPress   *core.Spec
	specRemove  *core.Spec
	specDeposit *core.Spec

	mu      sync.Mutex
	handled map[string][]except.ID
}

// New builds the action specs of a controller whose threads run on rt, as
// roles of one mux instance per cycle.
func New(rt *core.Runtime, mux *transport.Mux, plant *prodcell.Plant, cfg Config) (*Controller, error) {
	if cfg.SensorTimeout <= 0 {
		cfg.SensorTimeout = DefaultConfig().SensorTimeout
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultConfig().Poll
	}
	c := &Controller{
		rt:      rt,
		plant:   plant,
		cfg:     cfg,
		mux:     mux,
		handled: make(map[string][]except.ID),
	}
	c.buildSpecs()
	return c, nil
}

func roles(pairs ...string) []core.Role {
	out := make([]core.Role, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, core.Role{Name: pairs[i], Thread: pairs[i+1]})
	}
	return out
}

func mustGraph(b *except.Builder) *except.Graph {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("control: graph invalid: %v", err))
	}
	return g
}

func (c *Controller) buildSpecs() {
	c.specMLT = &core.Spec{
		Name:    "Move_Loaded_Table",
		Roles:   roles("table", ThTable, "table_sensor", ThTableSensor),
		Graph:   MoveLoadedTableGraph(),
		Signals: []except.ID{SigNCSFail, SigLPlate},
		Timing:  core.Timing{SignalTimeout: c.cfg.MLTSignalTimeout},
	}
	c.specUnload = &core.Spec{
		Name: "Unload_Table",
		Roles: roles("table", ThTable, "table_sensor", ThTableSensor,
			"robot", ThRobot, "robot_sensor", ThRobotSensor),
		Graph: mustGraph(except.NewBuilder("Unload_Table").
			Node(ExcLPlate).Node(ExcNoGrab).Node(SigNCSFail).Node(SigLPlate).
			Node(SigA1Senor).
			Node(c.undone("Move_Loaded_Table")).Node(c.failed("Move_Loaded_Table")).
			WithUniversal()),
		Signals: []except.ID{SigTSensor, SigA1Senor, SigLPlate},
	}
	c.specPress = &core.Spec{
		Name: "Pressing",
		Roles: roles("robot", ThRobot, "robot_sensor", ThRobotSensor,
			"press", ThPress, "press_sensor", ThPressSensor),
		Graph: mustGraph(except.NewBuilder("Pressing").
			Node("press_fault").WithUniversal()),
	}
	c.specRemove = &core.Spec{
		Name: "Remove_Plate",
		Roles: roles("robot", ThRobot, "robot_sensor", ThRobotSensor,
			"press", ThPress, "press_sensor", ThPressSensor),
		Graph: mustGraph(except.NewBuilder("Remove_Plate").
			Node(ExcLPlate).Node(ExcNoGrab).WithUniversal()),
		Signals: []except.ID{SigLPlate},
	}
	c.specTPR = &core.Spec{
		Name: "Table_Press_Robot",
		Roles: roles("table", ThTable, "table_sensor", ThTableSensor,
			"robot", ThRobot, "robot_sensor", ThRobotSensor,
			"press", ThPress, "press_sensor", ThPressSensor),
		Graph: mustGraph(except.NewBuilder("Table_Press_Robot").
			Node(SigLPlate).Node(SigTSensor).Node(SigA1Senor).
			Node(c.undone("Unload_Table")).Node(c.failed("Unload_Table")).
			Node(c.undone("Pressing")).Node(c.failed("Pressing")).
			Node(c.undone("Remove_Plate")).Node(c.failed("Remove_Plate")).
			WithUniversal()),
		Signals: []except.ID{SigLPlate, SigTSensor, SigA1Senor},
	}
	c.specLoad = &core.Spec{
		Name:  "Load_Table",
		Roles: roles("belt", ThFeedBelt, "table", ThTable, "table_sensor", ThTableSensor),
		Graph: mustGraph(except.NewBuilder("Load_Table").
			Node(ExcNoBlank).Node("belt_fault").WithUniversal()),
	}
	c.specDeposit = &core.Spec{
		Name:  "Deposit_Plate",
		Roles: roles("robot", ThRobot, "robot_sensor", ThRobotSensor, "belt", ThDepositBelt),
		Graph: mustGraph(except.NewBuilder("Deposit_Plate").
			Node(ExcLPlate).Node("belt_fault").WithUniversal()),
		Signals: []except.ID{SigLPlate},
	}
	c.specProduce = &core.Spec{
		Name: "Produce_Blank",
		Roles: roles("belt_f", ThFeedBelt, "belt_d", ThDepositBelt,
			"table", ThTable, "table_sensor", ThTableSensor,
			"robot", ThRobot, "robot_sensor", ThRobotSensor,
			"press", ThPress, "press_sensor", ThPressSensor),
		Graph: mustGraph(except.NewBuilder("Produce_Blank").
			Node(SigLPlate).Node(SigTSensor).Node(SigA1Senor).
			Node(c.undone("Load_Table")).Node(c.failed("Load_Table")).
			Node(c.undone("Table_Press_Robot")).Node(c.failed("Table_Press_Robot")).
			Node(c.undone("Deposit_Plate")).Node(c.failed("Deposit_Plate")).
			WithUniversal()),
		Signals: []except.ID{SigLPlate, SigTSensor, SigA1Senor},
	}
}

func (c *Controller) undone(name string) except.ID { return except.ID(name + ".undone") }
func (c *Controller) failed(name string) except.ID { return except.ID(name + ".failed") }

// Plant exposes the controlled plant.
func (c *Controller) Plant() *prodcell.Plant { return c.plant }

// takeInjection consumes the one-shot fault-injection flags; they fire in
// the next Move_Loaded_Table execution only.
func (c *Controller) takeInjection() (cs, rtexc, plain bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, rtexc, plain = c.cfg.InjectCSFault, c.cfg.InjectRTExc, c.cfg.InjectPlainError
	c.cfg.InjectCSFault, c.cfg.InjectRTExc, c.cfg.InjectPlainError = false, false, false
	return cs, rtexc, plain
}

// note records a handler invocation for the report.
func (c *Controller) note(thread string, resolved except.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handled[thread] = append(c.handled[thread], resolved)
}

// RunCycle executes one Produce_Blank action across all threads, one
// goroutine per controller thread, and returns once the runtime clock has
// no goroutine left to wait for. It must be called from a goroutine the
// clock does not track. A thread address already bound elsewhere fails
// every role with the bind error.
func (c *Controller) RunCycle() *Report {
	rep := &Report{}
	c.cycles++
	tag := "c" + strconv.Itoa(c.cycles)
	err := simenv.Start(c.rt.Clock(), func() ([]func(), error) {
		var participants []func()
		var err error
		participants, rep.Outcomes, err = c.rt.Participants(c.mux, tag, c.specProduce, func(th *core.Thread, r core.Role) error {
			return th.Perform(c.specProduce, r.Name, c.produceProgram(r.Name))
		})
		return participants, err
	})
	if err != nil {
		rep.Outcomes = make(map[string]error, len(c.specProduce.Roles))
		for _, r := range c.specProduce.Roles {
			rep.Outcomes[r.Thread] = err
		}
	}
	c.mu.Lock()
	rep.Handled = make(map[string][]except.ID, len(c.handled))
	for k, v := range c.handled {
		rep.Handled[k] = append([]except.ID(nil), v...)
	}
	c.handled = make(map[string][]except.ID)
	c.mu.Unlock()
	return rep
}
