package figures

import (
	"bytes"
	"testing"
)

func TestPlanIDsCoverSweepFigures(t *testing.T) {
	want := []string{"6.1", "6.2", "6.3", "6.4", "6.5", "6.6", "momentum", "faultmodel", "penalty", "svm", "robustloss", "graphlp", "eigen"}
	got := PlanIDs()
	if len(got) != len(want) {
		t.Fatalf("PlanIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PlanIDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, id := range []string{"5.1", "5.2", "6.7", "flops"} {
		if PlanFor(id, Config{}) != nil {
			t.Errorf("non-sweep figure %q has a plan", id)
		}
	}
	if PlanFor("nope", Config{}) != nil {
		t.Error("unknown id has a plan")
	}
}

func TestPlanStructure(t *testing.T) {
	for _, id := range PlanIDs() {
		plan := PlanFor(id, Config{Quick: true, Seed: 2})
		if plan.ID != id {
			t.Errorf("plan %q reports id %q", id, plan.ID)
		}
		if len(plan.Units) == 0 {
			t.Errorf("plan %q has no units", id)
		}
		if plan.Size() <= 0 {
			t.Errorf("plan %q size = %d", id, plan.Size())
		}
		for _, u := range plan.Units {
			if u.Series == "" || u.Fn == nil || len(u.Sweep.Rates) == 0 {
				t.Errorf("plan %q unit %+v malformed", id, u.Series)
			}
			if u.Agg != "mean" && u.Agg != "median" {
				t.Errorf("plan %q unit %q agg = %q", id, u.Series, u.Agg)
			}
		}
	}
}

func TestConfigWorkersOnlySchedules(t *testing.T) {
	a := plan61(Config{Quick: true, Seed: 4, Workers: 1}).Build()
	b := plan61(Config{Quick: true, Seed: 4, Workers: 3}).Build()
	var ra, rb bytes.Buffer
	if err := a.Render(&ra); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&rb); err != nil {
		t.Fatal(err)
	}
	if ra.String() != rb.String() {
		t.Error("worker count changed figure results")
	}
}
