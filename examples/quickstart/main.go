// Quickstart: two cooperating roles inside one CA action. The producer role
// detects a fault and raises an exception; both roles are switched to their
// handlers for the resolved exception and the action completes by forward
// recovery — the paper's Figure 1 in ~80 lines — followed by a second
// action whose unhandled exception aborts it with undo (µ), demonstrating
// the typed outcome errors.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"caaction"
)

func main() {
	log.SetFlags(0)
	sys, err := caaction.New(
		caaction.WithVirtualTime(),
		caaction.WithSimTransport(5*time.Millisecond), // Tmmax
	)
	if err != nil {
		log.Fatal(err)
	}

	// Exception context: one declared exception plus the universal root.
	spec, err := caaction.NewSpec("transfer").
		Role("producer", "T1").
		Role("consumer", "T2").
		Exception("bad_checksum").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	handler := func(ctx *caaction.Context, resolved caaction.Exception, raised []caaction.Raised) error {
		fmt.Printf("[%v] %s/%s handling %q (raised by %s)\n",
			ctx.Now(), ctx.Self(), ctx.Role(), resolved, raised[0].Origin)
		// Forward recovery: resend with a fresh checksum.
		if ctx.Role() == "producer" {
			return ctx.Send("consumer", "block-1 (retransmitted)")
		}
		payload, err := ctx.Recv("producer")
		if err != nil {
			return err
		}
		fmt.Printf("[%v] consumer recovered payload: %v\n", ctx.Now(), payload)
		return nil
	}

	producer := caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error {
			if err := ctx.Send("consumer", "block-1 (corrupted)"); err != nil {
				return err
			}
			return ctx.Compute(50 * time.Millisecond) // interrupted by the consumer's raise
		},
		Handlers: map[caaction.Exception]caaction.Handler{"bad_checksum": handler},
	}
	consumer := caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error {
			payload, err := ctx.Recv("producer")
			if err != nil {
				return err
			}
			fmt.Printf("[%v] consumer got: %v\n", ctx.Now(), payload)
			// Detection: the checksum fails → raise; the runtime informs the
			// producer and coordinates resolution.
			return ctx.Raise("bad_checksum", "crc mismatch on block-1")
		},
		Handlers: map[caaction.Exception]caaction.Handler{"bad_checksum": handler},
	}

	perform(sys, spec, producer, consumer)
	metrics := sys.Metrics()
	fmt.Printf("action completed successfully at virtual time %v\n", sys.Now())
	fmt.Printf("protocol messages: %d (Exception=%d Suspended=%d Commit=%d)\n",
		metrics.Get("msg.total"),
		metrics.Get("msg.Exception"), metrics.Get("msg.Suspended"), metrics.Get("msg.Commit"))

	// A second action raises an exception neither role handles: the
	// termination model converts it to the undo exception µ, coordinated by
	// the signalling algorithm — the typed outcome below is recovered with
	// errors.As.
	audit := caaction.NewSpec("audit").
		Role("producer", "T1").
		Role("consumer", "T2").
		Exception("ledger_corrupt").
		MustBuild()
	perform(sys, audit,
		caaction.RoleProgram{Body: func(ctx *caaction.Context) error {
			return ctx.Raise("ledger_corrupt", "no handler anywhere")
		}},
		caaction.RoleProgram{Body: func(ctx *caaction.Context) error {
			return ctx.Compute(50 * time.Millisecond)
		}},
	)
	fmt.Printf("audit action concluded at virtual time %v\n", sys.Now())
}

// perform runs one two-role action and reports each role's typed outcome.
func perform(sys *caaction.System, spec *caaction.Spec, p1, p2 caaction.RoleProgram) {
	h, err := sys.StartAction(context.Background(), spec, map[string]caaction.RoleProgram{
		spec.Roles[0].Name: p1,
		spec.Roles[1].Name: p2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Wait from this untracked goroutine covers every started role; the
	// outcomes are then complete.
	sys.Wait()
	for _, err := range h.Results() {
		var sig *caaction.SignalledError
		switch {
		case err == nil:
		case errors.As(err, &sig):
			// Every exceptional outcome matches ErrSignalled; errors.As
			// recovers which ε/µ/ƒ this role signalled.
			switch sig.Exc {
			case caaction.Undo:
				fmt.Printf("action %s aborted and undone (µ)\n", sig.Action)
			case caaction.Failure:
				fmt.Printf("action %s failed (ƒ)\n", sig.Action)
			default:
				fmt.Printf("action %s signalled %q\n", sig.Action, sig.Exc)
			}
		default:
			log.Fatalf("action outcome: %v", err)
		}
	}
}
