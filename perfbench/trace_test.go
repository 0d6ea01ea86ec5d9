package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 30},    // 1: child
		{parent: 1, start: 12, end: 20},    // 2: grandchild, counts against 1 only
		{parent: 0, start: 25, end: 50},    // 3: overlaps 1
		{parent: 0, start: 40, end: 45},    // 4: inside 3
		{parent: 0, start: 90, end: 130},   // 5: reaches past the root's end
		{parent: -1, start: 200, end: 260}, // 6: second root, no children
		{parent: 6, start: 190, end: 195},  // 7: entirely before its parent
	}
	got := selfTimes(spans)
	// Root 0 is covered by [10,50) and [90,100): 50 of 100.
	want := []int64{50, 12, 8, 25, 5, 40, 60, 5}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderMergeRebasesParents(t *testing.T) {
	a := &recorder{spans: []span{{parent: -1}}}
	b := &recorder{spans: []span{{parent: -1}, {parent: 0}}}
	a.merge(b)
	if got := []int32{a.spans[0].parent, a.spans[1].parent, a.spans[2].parent}; !slices.Equal(got, []int32{-1, -1, 1}) {
		t.Errorf("parents after merge = %v", got)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(1, -1, spanTx)) // a nil recorder records nothing
}
