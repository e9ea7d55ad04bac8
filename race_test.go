//go:build race

package caaction_test

func init() { raceEnabled = true }
