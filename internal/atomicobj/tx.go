package atomicobj

import (
	"errors"
	"slices"
	"strings"
	"sync"

	"caaction/internal/except"
)

// Tx tracks the external objects one thread uses on behalf of one action
// instance, so they can be informed, committed or undone together at the
// action boundary. Different roles of the same action may hold their own Tx
// for the same action: the object-level lock is shared (it is scoped to the
// action) and completion operations are idempotent per action. A nil Tx is
// one that used no objects: Inform, Commit and Undo do nothing.
type Tx struct {
	reg    *Registry
	action string

	mu sync.Mutex
	// used is the use set sorted by name. It is replaced, never changed
	// in place, so a completion walk iterates it outside mu.
	used []*Object
	done bool
}

// Begin starts tracking object use for an action instance. The use set is
// allocated on first object access.
func (r *Registry) Begin(action string) *Tx {
	return &Tx{reg: r, action: action}
}

// Action returns the owning action instance identifier.
func (tx *Tx) Action() string { return tx.action }

// Object resolves a named object and records it in the transaction's use
// set. The object is locked for the action on first actual access.
func (tx *Tx) Object(name string) (*Object, error) {
	o, err := tx.reg.Get(name)
	if err != nil {
		return nil, err
	}
	tx.mu.Lock()
	if i, found := slices.BinarySearchFunc(tx.used, name, byName); !found {
		// Clip makes Insert copy into a new array.
		tx.used = slices.Insert(slices.Clip(tx.used), i, o)
	}
	tx.mu.Unlock()
	return o, nil
}

// Read acquires and reads a named object.
func (tx *Tx) Read(name string) (any, error) {
	o, err := tx.Object(name)
	if err != nil {
		return nil, err
	}
	return o.Read(tx.action), nil
}

// Write acquires and overwrites a named object.
func (tx *Tx) Write(name string, state any) error {
	o, err := tx.Object(name)
	if err != nil {
		return err
	}
	o.Write(tx.action, state)
	return nil
}

// Update acquires a named object and applies fn to its state.
func (tx *Tx) Update(name string, fn func(state any) any) error {
	o, err := tx.Object(name)
	if err != nil {
		return err
	}
	o.Update(tx.action, fn)
	return nil
}

// MarkDamaged declares a named object unrestorable for this action.
func (tx *Tx) MarkDamaged(name string) error {
	o, err := tx.Object(name)
	if err != nil {
		return err
	}
	o.Acquire(tx.action)
	return o.MarkDamaged(tx.action)
}

// Inform notifies every used object of a raised exception (§3.3.2).
func (tx *Tx) Inform(exc except.Raised) {
	if tx == nil {
		return
	}
	for _, o := range tx.objects() {
		o.Inform(tx.action, exc)
	}
}

// Used lists the names of the objects this transaction touched, sorted.
func (tx *Tx) Used() []string {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	out := make([]string, len(tx.used))
	for i, o := range tx.used {
		out[i] = o.name
	}
	return out
}

// Commit commits every used object. Safe to call when another role already
// completed the action's objects.
func (tx *Tx) Commit() error {
	if tx == nil {
		return nil
	}
	var firstErr error
	for _, o := range tx.objects() {
		if err := o.Commit(tx.action); err != nil && !errors.Is(err, ErrNotHeld) {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	tx.finish()
	return firstErr
}

// Undo restores every used object's before-image. It returns ErrUndoFailed
// (wrapped) if any object could not be restored — the caller must then
// signal ƒ instead of µ.
func (tx *Tx) Undo() error {
	if tx == nil {
		return nil
	}
	var firstErr error
	for _, o := range tx.objects() {
		if err := o.Undo(tx.action); err != nil {
			if errors.Is(err, ErrNotHeld) {
				continue // another role already completed this object
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	tx.finish()
	return firstErr
}

// objects returns the use set in name order. The caller walks it without
// holding mu: Object replaces the slice rather than changing it.
func (tx *Tx) objects() []*Object {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.used
}

func byName(o *Object, name string) int { return strings.Compare(o.name, name) }

func (tx *Tx) finish() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.done = true
	tx.used = nil
}
