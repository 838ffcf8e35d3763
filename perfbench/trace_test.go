package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		// Two overlapping children cover [10, 60); a third pokes out
		// past the parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "recv", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "recv", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "send", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if got, want := self["round"], time.Duration(100-50-10); got != want {
		t.Errorf("round self time = %v, want %v", got, want)
	}
	if got, want := self["recv"], time.Duration(40+30); got != want {
		t.Errorf("recv self time = %v, want %v", got, want)
	}
	if got, want := overlap(spans, "recv", 40, 100), time.Duration(10+20); got != want {
		t.Errorf("recv overlap with [40,100) = %v, want %v", got, want)
	}
}

func TestTailFallsBackToTheMedianOnFewSamples(t *testing.T) {
	few := []float64{5, 1, 4, 2, 3}
	if got := tail(few, 99); got != 3 {
		t.Errorf("p99 of 5 samples = %v, want the median 3", got)
	}
	many := make([]float64, 2000)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := tail(many, 99); got != 1980 {
		t.Errorf("p99 of 1..2000 = %v, want 1980", got)
	}
	// 100 samples leave ten beyond p90 at most.
	if got := tail(many[:100], 99); got != 90 {
		t.Errorf("tail of 1..100 = %v, want p90 = 90", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0)
	sp.end()
	if spans := tr.all(); spans != nil {
		t.Errorf("nil tracer recorded %v", spans)
	}
}
