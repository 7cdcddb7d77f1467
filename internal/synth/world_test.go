package synth

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// worldDigest is the sha256 of each artefact of a scenario, rendered with
// %v (floats print in their shortest exact form).
type worldDigest struct{ wire, entities, areas, events string }

func digest(sc *Scenario) worldDigest {
	sum := func(write func(h hash.Hash)) string {
		h := sha256.New()
		write(h)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	return worldDigest{
		wire: sum(func(h hash.Hash) {
			for _, tl := range sc.WireTimed {
				fmt.Fprintf(h, "%d %s\n", tl.TS, tl.Line)
			}
		}),
		entities: sum(func(h hash.Hash) {
			for _, e := range sc.Entities {
				fmt.Fprintf(h, "%+v\n", e)
			}
		}),
		areas: sum(func(h hash.Hash) {
			for _, name := range slices.Sorted(maps.Keys(sc.Areas)) {
				fmt.Fprintf(h, "%s %v %v\n", name, sc.Areas[name].Ring, sc.Areas[name].BBox())
			}
		}),
		events: sum(func(h hash.Hash) {
			for _, e := range sc.Events {
				fmt.Fprintf(h, "%+v\n", e)
			}
		}),
	}
}

// TestGeneratedWorldsAreFrozen pins the generators' output: every result
// hash of the benchmark depends on these streams, so a change to the
// generators (or to their RNG draw order) must show here first. The hashes
// were recorded before the generators were split into plan and simulation.
func TestGeneratedWorldsAreFrozen(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() *Scenario
		want worldDigest
	}{
		{"maritime seed 1, 1000 vessels, 1 min", func() *Scenario {
			return GenMaritime(MaritimeConfig{Seed: 1, Vessels: 1000, Duration: time.Minute})
		}, worldDigest{
			wire:     "468f462de1c7cb2ee4cb6598f248adee9e92f98c3ce35c38b444665ed6e8bc44",
			entities: "0abcc3afc63d2b17471bffd02200a2fd5ff42c0aad6030819a64452b0d12ccda",
			areas:    "924738d85bdd86de361d1a92dfa08bffb61e16875edfb266a0f7dfb23049a14e",
			events:   "30abe9c7e87714226d5d4181370b96192576c904349a0d00fc5183b0760a68de",
		}},
		{"maritime seed 2, 50 vessels, 10 min", func() *Scenario {
			return GenMaritime(MaritimeConfig{Seed: 2, Vessels: 50, Duration: 10 * time.Minute})
		}, worldDigest{
			wire:     "573b2d959c938b3f63d9aa088f9b1dca4c9e9b8d3dd184f629ec9c7a17b03cc5",
			entities: "1310903ba80393a86eed3e69ad5fcd121d0f599b6c82ba6a2b6ac38c23a07cb6",
			areas:    "924738d85bdd86de361d1a92dfa08bffb61e16875edfb266a0f7dfb23049a14e",
			events:   "7691a1b4cbd2f7ec3d211544720fe5f8aa37dea1a956c45f4e82dce9fad752ce",
		}},
		{"aviation seed 1, 40 flights, 30 min", func() *Scenario {
			return GenAviation(AviationConfig{Seed: 1, Flights: 40, Duration: 30 * time.Minute})
		}, worldDigest{
			wire:     "d5951d727b715eeab86169b88441cfb72158c83c64d6e4cd1a8d864d49023579",
			entities: "6c24c7a89913b9031eb9b2a79a6f7a47af06c10dce42c4f51593a2bc779363b9",
			areas:    "ef7db62dcd106ae94bdccecd4f2c256ec72f328498618a972af6924925803326",
			events:   "429a065151bd8280937c7cf1e14c791c76ff12e7af9f253abb03835219e5cbae",
		}},
	} {
		if got := digest(c.gen()); got != c.want {
			t.Errorf("%s: digest\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}

// samePolygons reports whether two area sets hold equal rings with equal
// bounding boxes (compared through BBox, since the box is cached lazily).
func samePolygons(a, b map[string]*geo.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for name, pa := range a {
		pb, ok := b[name]
		if !ok || !reflect.DeepEqual(pa.Ring, pb.Ring) || pa.BBox() != pb.BBox() {
			return false
		}
	}
	return true
}

// TestWorldIsTheGeneratorsRegistry holds the traffic-free worlds to the
// generators: the same areas, entities and scripted events, and no traffic.
func TestWorldIsTheGeneratorsRegistry(t *testing.T) {
	scripted := func(evs []model.Event) []model.Event {
		return slices.DeleteFunc(slices.Clone(evs), func(e model.Event) bool { return e.Type == "areaEntry" })
	}
	check := func(name string, world, gen *Scenario) {
		t.Helper()
		if !samePolygons(world.Areas, gen.Areas) {
			t.Errorf("%s: areas differ", name)
		}
		if !slices.Equal(world.Entities, gen.Entities) {
			t.Errorf("%s: entities differ", name)
		}
		if !slices.Equal(world.Events, scripted(gen.Events)) {
			t.Errorf("%s: scripted events differ", name)
		}
		if world.Box != gen.Box || world.Domain != gen.Domain {
			t.Errorf("%s: box or domain differs", name)
		}
		if len(world.Truth)+len(world.Positions)+len(world.WireLines)+len(world.WireTimed) != 0 {
			t.Errorf("%s: the world carries traffic", name)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{8, 50, 1000} {
			cfg := MaritimeConfig{Seed: seed, Vessels: n, Duration: time.Minute}
			check(fmt.Sprintf("maritime seed %d, %d vessels", seed, n), MaritimeWorld(cfg), GenMaritime(cfg))
		}
		for _, n := range []int{8, 40, 200} {
			cfg := AviationConfig{Seed: seed, Flights: n, Duration: time.Minute}
			check(fmt.Sprintf("aviation seed %d, %d flights", seed, n), AviationWorld(cfg), GenAviation(cfg))
		}
	}
}
