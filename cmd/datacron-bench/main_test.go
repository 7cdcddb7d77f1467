package main

import (
	"strings"
	"testing"
)

func ids(run []experiment) string {
	var out []string
	for _, e := range run {
		out = append(out, e.id)
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct{ only, want string }{
		{"", ids(all)},
		{" , ", ids(all)},
		{"E3,E1", "E1,E3"}, // suite order, not flag order
		{"e2, E2 ,E15", "E2,E15"},
	} {
		run, err := selectExperiments(tc.only)
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		if got := ids(run); got != tc.want {
			t.Errorf("-only %q selected %s, want %s", tc.only, got, tc.want)
		}
	}
}

func TestSelectExperimentsUnknownID(t *testing.T) {
	for _, tc := range []struct{ only, unknown string }{
		{"E16", "E16"},
		{"E2,E99", "E99"},
		{"x,E1,y", "X, Y"},
	} {
		run, err := selectExperiments(tc.only)
		if err == nil {
			t.Errorf("-only %q: selected %s, want an error", tc.only, ids(run))
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment "+tc.unknown+" ") || !strings.Contains(msg, "valid: E1, E2,") {
			t.Errorf("-only %q: error %q must name %s and list the valid ids", tc.only, msg, tc.unknown)
		}
	}
}
