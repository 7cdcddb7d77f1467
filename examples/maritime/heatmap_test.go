package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/hotspot"
)

func TestHeatmapPPM(t *testing.T) {
	d := hotspot.NewDensityGrid(geo.NewGrid(geo.NewBBox(22, 34, 30, 42), 8, 8))
	for i := 0; i < 50; i++ {
		d.Add(geo.Pt(25, 38))
	}
	var buf bytes.Buffer
	if err := heatmapPPM(&buf, d, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n32 32\n255\n") {
		t.Errorf("header = %q", buf.String()[:16])
	}
	// Hot cell must render red (255,0,0); verify some red pixel exists.
	body := buf.Bytes()[len("P6\n32 32\n255\n"):]
	foundRed := false
	for i := 0; i+2 < len(body); i += 3 {
		if body[i] == 255 && body[i+1] == 0 && body[i+2] == 0 {
			foundRed = true
			break
		}
	}
	if !foundRed {
		t.Error("no saturated hotspot pixel")
	}
}

func TestRamp(t *testing.T) {
	if r, g, b := ramp(0); r != 255 || g != 255 || b != 255 {
		t.Error("zero should be white")
	}
	if r, g, b := ramp(1); r != 255 || g != 0 || b != 0 {
		t.Error("one should be red")
	}
	if r, g, b := ramp(0.5); r != 255 || g != 255 || b != 0 {
		t.Error("half should be yellow")
	}
	// Out of range clamps.
	if r, _, _ := ramp(-1); r != 255 {
		t.Error("negative clamp")
	}
	ramp(2)
}
