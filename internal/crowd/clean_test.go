package crowd

import (
	"strings"
	"testing"
)

func TestClean(t *testing.T) {
	votes := []Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},  // ok
		{Worker: 0, I: 0, J: 1, PrefersI: true},  // duplicate submission
		{Worker: 0, I: 1, J: 0, PrefersI: false}, // same answer, reversed encoding -> duplicate
		{Worker: 0, I: 0, J: 1, PrefersI: false}, // conflicting repeat: kept
		{Worker: 1, I: 2, J: 2, PrefersI: true},  // self pair
		{Worker: 1, I: 0, J: 9, PrefersI: true},  // object out of range
		{Worker: 9, I: 0, J: 1, PrefersI: true},  // worker out of range
		{Worker: -1, I: 0, J: 1, PrefersI: true}, // negative worker
		{Worker: 1, I: -2, J: 1, PrefersI: true}, // negative object
		{Worker: 2, I: 1, J: 2, PrefersI: false}, // ok
	}
	clean, report := Clean(votes, 3, 3)
	if report.Input != 10 || report.Kept != 3 || len(clean) != 3 || report.Dropped() != 7 {
		t.Fatalf("report = %+v, clean = %v", report, clean)
	}
	if report.Duplicates != 2 {
		t.Errorf("duplicates = %d, want 2", report.Duplicates)
	}
	if report.OutOfRangePairs != 2 || report.SelfPairs != 1 {
		t.Errorf("out-of-range pairs = %d, self pairs = %d, want 2 and 1", report.OutOfRangePairs, report.SelfPairs)
	}
	if report.InvalidWorkers != 2 {
		t.Errorf("invalid workers = %d, want 2", report.InvalidWorkers)
	}
	if !strings.Contains(report.String(), "kept 3") {
		t.Errorf("report string = %q", report.String())
	}
}

func TestCleanDoesNotMutateInput(t *testing.T) {
	votes := []Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}
	Clean(votes, 2, 1)
	if votes[0] != (Vote{Worker: 0, I: 0, J: 1, PrefersI: true}) {
		t.Error("input mutated")
	}
}
