package main

import "github.com/hvscan/hvscan/internal/autofix"

// The repair adapter: the only file that calls the autofix entry point.

// outcomes lists the repair outcomes in the engine's order.
func outcomes() []string { return autofix.Outcomes() }

// repair runs the validated repair engine over one document and returns
// the repaired bytes and the outcome.
func repair(doc []byte) (out []byte, outcome string, err error) {
	r, err := autofix.Repair(doc)
	if err != nil {
		return nil, "", err
	}
	return r.Output, string(r.Outcome()), nil
}
