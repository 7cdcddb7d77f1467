// Package datacron is the public facade of the datAcron reproduction: a big
// data management and analytics stack for mobility forecasting over moving
// entities in the maritime (2D) and aviation (3D) domains, reproducing
// Doulkeridis et al., "Big Data Management and Analytics for Mobility
// Forecasting in datAcron" (EDBT/ICDT 2017 workshops).
//
// The facade wraps the full architecture: synthetic AIS/ADS-B data sources,
// in-situ stream compression, RDF transformation, link discovery, a
// partitioned parallel spatiotemporal RDF store with a SPARQL-like query
// language, complex event recognition, and trajectory & event forecasting.
// See DESIGN.md for the component inventory and DESIGN.md §4 (Experiments)
// for the experiment suite.
package datacron

import (
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

// Version of the reproduction.
const Version = "1.0.0"

// Pipeline is the running datAcron architecture; see internal/core for the
// full API (query engine, parallel store, CER suite, density analytics).
type Pipeline = core.Pipeline

// Config parameterises a pipeline.
type Config = core.Config

// Scenario is a generated synthetic world with ground truth.
type Scenario = synth.Scenario

// NewMaritimePipeline returns a pipeline configured for vessel traffic,
// tracing one line in obs.DefaultSampleEvery like the daemon.
func NewMaritimePipeline() *Pipeline {
	return core.New(core.Config{Domain: model.Maritime, Trace: obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery}})
}

// NewAviationPipeline returns a pipeline configured for flight traffic,
// tracing like NewMaritimePipeline.
func NewAviationPipeline() *Pipeline {
	return core.New(core.Config{Domain: model.Aviation, Trace: obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery}})
}

// NewPipeline returns a pipeline with a custom configuration.
func NewPipeline(cfg Config) *Pipeline { return core.New(cfg) }

// GenerateMaritime produces a deterministic synthetic maritime world:
// vessels on Aegean shipping lanes with scripted rendezvous, loitering,
// fishing activity, AIS gaps and GPS noise, emitted as genuine AIS AIVDM
// sentences plus aligned ground truth.
func GenerateMaritime(seed int64, vessels int, duration time.Duration) *Scenario {
	return synth.GenMaritime(synth.MaritimeConfig{Seed: seed, Vessels: vessels, Duration: duration})
}

// GenerateAviation produces a deterministic synthetic aviation world:
// flights between Aegean-region airports with climb/cruise/descent
// profiles and scripted holding congestion, emitted as SBS-1 BaseStation
// messages plus aligned ground truth.
func GenerateAviation(seed int64, flights int, duration time.Duration) *Scenario {
	return synth.GenAviation(synth.AviationConfig{Seed: seed, Flights: flights, Duration: duration})
}
