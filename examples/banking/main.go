// Banking: external atomic objects under CA actions — the §3.1 model's
// transactional side. Two roles transfer money between accounts (external
// atomic objects shared with other actions). Three scenarios:
//
//  1. a clean transfer commits;
//  2. a fraud alert is raised mid-transfer and the handlers repair the
//     accounts to new valid states (forward recovery, the action still
//     commits);
//  3. an unhandleable exception aborts the action: the undo exception µ is
//     coordinated by the signalling algorithm and the accounts roll back to
//     their before-images.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"caaction"
)

func main() {
	log.SetFlags(0)
	sys, err := caaction.New(
		caaction.WithVirtualTime(),
		caaction.WithSimTransport(2*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := sys.Define("alice", 1000)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := sys.Define("bob", 200)
	if err != nil {
		log.Fatal(err)
	}

	spec, err := caaction.NewSpec("transfer").
		Role("debit", "T1").
		Role("credit", "T2").
		Exception("fraud_alert", "ledger_corrupt").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	runTransfer := func(title string, debit, credit caaction.RoleProgram) {
		fmt.Printf("== %s ==\n", title)
		h, err := sys.StartAction(context.Background(), spec,
			map[string]caaction.RoleProgram{"debit": debit, "credit": credit})
		if err != nil {
			log.Fatal(err)
		}
		sys.Wait()
		for _, err := range h.Results() {
			switch {
			case err == nil:
			case caaction.IsUndone(err):
				fmt.Println("  outcome: aborted and undone (µ)")
			case caaction.IsFailed(err):
				fmt.Println("  outcome: failed (ƒ)")
			default:
				fmt.Printf("  outcome: %v\n", err)
			}
		}
		fmt.Printf("  balances: alice=%v bob=%v (versions %d/%d)\n\n",
			alice.Peek(), bob.Peek(), alice.Version(), bob.Version())
	}

	debitBody := func(amount int, raise caaction.Exception) caaction.Body {
		return func(ctx *caaction.Context) error {
			bal, err := ctx.Tx().Read("alice")
			if err != nil {
				return err
			}
			if err := ctx.Tx().Write("alice", bal.(int)-amount); err != nil {
				return err
			}
			if raise != caaction.NoException {
				return ctx.Raise(raise, "suspicious transfer pattern")
			}
			return ctx.Send("credit", amount)
		}
	}
	creditBody := func(ctx *caaction.Context) error {
		v, err := ctx.Recv("debit")
		if err != nil {
			return err
		}
		bal, err := ctx.Tx().Read("bob")
		if err != nil {
			return err
		}
		return ctx.Tx().Write("bob", bal.(int)+v.(int))
	}

	// 1. Clean transfer of 300: both objects commit atomically at exit.
	runTransfer("clean transfer of 300",
		caaction.RoleProgram{Body: debitBody(300, caaction.NoException)},
		caaction.RoleProgram{Body: creditBody},
	)

	// 2. Fraud alert: handlers repair the accounts to new valid states —
	// the debit is reversed and a fee is charged; the action commits the
	// repaired state (forward error recovery on external objects).
	repair := func(ctx *caaction.Context, resolved caaction.Exception, _ []caaction.Raised) error {
		if ctx.Role() == "debit" {
			bal, err := ctx.Tx().Read("alice")
			if err != nil {
				return err
			}
			return ctx.Tx().Write("alice", bal.(int)+500-25) // reverse, charge fee
		}
		return nil
	}
	runTransfer("transfer of 500 with fraud alert (forward recovery)",
		caaction.RoleProgram{
			Body:     debitBody(500, "fraud_alert"),
			Handlers: map[caaction.Exception]caaction.Handler{"fraud_alert": repair},
		},
		caaction.RoleProgram{
			Body:     creditBody,
			Handlers: map[caaction.Exception]caaction.Handler{"fraud_alert": repair},
		},
	)

	// 3. Ledger corruption has no handler: the termination model converts
	// it to the undo exception µ; the signalling algorithm coordinates the
	// undo and both accounts are restored to their before-images.
	runTransfer("transfer of 900 hitting unhandled corruption (undo)",
		caaction.RoleProgram{Body: debitBody(900, "ledger_corrupt")},
		caaction.RoleProgram{Body: creditBody},
	)
}
