package datacron

import (
	"testing"
	"time"
)

func TestFacadeMaritime(t *testing.T) {
	sc := GenerateMaritime(1, 10, 30*time.Minute)
	if len(sc.Entities) != 10 || len(sc.WireLines) == 0 {
		t.Fatalf("scenario shape: %d entities, %d lines", len(sc.Entities), len(sc.WireLines))
	}
	p := NewMaritimePipeline()
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	p.Ingest(sc.WireTimed)
	res, err := p.Engine.Execute(`SELECT COUNT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].Int(); n != 10 {
		t.Errorf("vessel count = %d", n)
	}
}

func TestFacadeAviation(t *testing.T) {
	sc := GenerateAviation(1, 6, 30*time.Minute)
	p := NewAviationPipeline()
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	p.Ingest(sc.WireTimed)
	if p.Stats.Decoded == 0 {
		t.Error("nothing decoded")
	}
}

func TestFacadeCustomConfig(t *testing.T) {
	p := NewPipeline(Config{Shards: 2})
	if p.Store.NumShards() != 2 {
		t.Errorf("shards = %d", p.Store.NumShards())
	}
	if Version == "" {
		t.Error("empty version")
	}
}
