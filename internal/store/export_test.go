package store

import (
	"bytes"
	"testing"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/partition"
)

func TestExportDedupsGlobals(t *testing.T) {
	s := NewSharded(partition.NewHash(3), box)
	s.AddEntity(model.Entity{ID: "X", Name: "N"}) // replicated to 3 shards
	var buf bytes.Buffer
	if err := s.ExportNT(&buf); err != nil {
		t.Fatal(err)
	}
	// Each triple appears once despite replication: count lines.
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if lines != 2 { // type + name
		t.Errorf("exported %d lines, want 2", lines)
	}
}
