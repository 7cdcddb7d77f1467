package main

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"github.com/datacron-project/datacron/internal/hotspot"
)

// heatmapPPM renders a density grid as a binary PPM (P6) image with a
// white→yellow→red colour ramp, one pixel per grid cell scaled up by
// `scale`, north at the top.
func heatmapPPM(w io.Writer, d *hotspot.DensityGrid, scale int) error {
	if scale < 1 {
		scale = 1
	}
	cols, rows := d.Grid.Cols, d.Grid.Rows
	max := d.Max()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", cols*scale, rows*scale); err != nil {
		return fmt.Errorf("heatmap: write header: %w", err)
	}
	for py := rows*scale - 1; py >= 0; py-- {
		row := py / scale
		for px := 0; px < cols*scale; px++ {
			col := px / scale
			v := 0.0
			if max > 0 {
				v = d.Counts[row*cols+col] / max
			}
			r, g, b := ramp(v)
			bw.WriteByte(r)
			bw.WriteByte(g)
			bw.WriteByte(b)
		}
	}
	return bw.Flush()
}

// ramp maps [0,1] to white→yellow→red.
func ramp(v float64) (r, g, b byte) {
	v = math.Max(0, math.Min(1, v))
	switch {
	case v == 0:
		return 255, 255, 255
	case v < 0.5:
		// white → yellow
		f := v / 0.5
		return 255, 255, byte(255 * (1 - f))
	default:
		// yellow → red
		f := (v - 0.5) / 0.5
		return 255, byte(255 * (1 - f)), 0
	}
}
