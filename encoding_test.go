package crowdrank

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestVotesCSVRoundTrip(t *testing.T) {
	votes := []Vote{
		{Worker: 0, I: 1, J: 2, PrefersI: true},
		{Worker: 3, I: 5, J: 4, PrefersI: false},
	}
	var buf bytes.Buffer
	if err := WriteVotesCSV(&buf, votes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVotesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(votes) {
		t.Fatalf("got %d votes", len(got))
	}
	for i := range votes {
		if got[i] != votes[i] {
			t.Errorf("vote %d: %+v != %+v", i, got[i], votes[i])
		}
	}
}

func TestVotesCSVRoundTripQuick(t *testing.T) {
	f := func(raw []struct {
		Worker uint8
		I, J   uint8
		Pref   bool
	}) bool {
		votes := make([]Vote, len(raw))
		for i, r := range raw {
			votes[i] = Vote{Worker: int(r.Worker), I: int(r.I), J: int(r.J), PrefersI: r.Pref}
		}
		var buf bytes.Buffer
		if err := WriteVotesCSV(&buf, votes); err != nil {
			return false
		}
		got, err := ReadVotesCSV(&buf)
		if err != nil || len(got) != len(votes) {
			return false
		}
		for i := range votes {
			if got[i] != votes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadVotesCSVWithoutHeader(t *testing.T) {
	got, err := ReadVotesCSV(strings.NewReader("2,0,1,true\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (Vote{Worker: 2, I: 0, J: 1, PrefersI: true}) {
		t.Errorf("got %+v", got)
	}
}

func TestReadVotesCSVErrors(t *testing.T) {
	cases := []string{
		"worker,i,j\n",                // wrong column count
		"a,0,1,true\n",                // bad worker
		"0,b,1,true\n",                // bad i
		"0,1,c,true\n",                // bad j
		"0,1,2,maybe\n",               // bad bool
		"worker,i,j,prefers_i\n0,1\n", // ragged row
	}
	for _, in := range cases {
		if _, err := ReadVotesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestPairsCSVRoundTrip(t *testing.T) {
	plan, err := PlanTasks(10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePairsCSV(&buf, plan.Pairs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPairsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plan.Pairs) {
		t.Fatalf("got %d pairs", len(got))
	}
	for i := range got {
		if got[i] != plan.Pairs[i] {
			t.Errorf("pair %d: %v != %v", i, got[i], plan.Pairs[i])
		}
	}
}

func TestReadPairsCSVErrors(t *testing.T) {
	for _, in := range []string{"i\n", "x,1\n", "1,y\n"} {
		if _, err := ReadPairsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestCSVInferInterop(t *testing.T) {
	// Votes surviving a CSV round trip must infer identically.
	plan, err := PlanTasksRatio(15, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	round, err := SimulateVotes(plan, DefaultSimConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVotesCSV(&buf, round.Votes); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadVotesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Infer(plan.N, 30, round.Votes, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(plan.N, 30, decoded, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranking {
		if a.Ranking[i] != b.Ranking[i] {
			t.Fatal("CSV round trip changed the inference result")
		}
	}
}
