package plot

import (
	"fmt"
	"math"
	"strings"
)

// SVG renders the chart as a standalone SVG document of the given pixel
// size — the Data Export Module's graph export path (SVG instead of the
// paper's PDF/JPG/BMP/PNG; README.md lists the export formats).
func (c *Chart) SVG(width, height int) string {
	if width < 200 {
		width = 200
	}
	if height < 150 {
		height = 150
	}
	xmin, xmax, ymin, ymax, ok := c.bounds()
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="18" text-anchor="middle" font-size="14" font-family="sans-serif">%s</text>`+"\n",
			width/2, esc(c.Title))
	}
	const (
		mLeft   = 60
		mRight  = 20
		mTop    = 30
		mBottom = 50
	)
	pw := width - mLeft - mRight
	ph := height - mTop - mBottom
	if !ok || pw <= 0 || ph <= 0 {
		sb.WriteString(`<text x="20" y="40" font-family="sans-serif">(no data)</text></svg>`)
		return sb.String()
	}
	px := func(x float64) float64 { return mLeft + (x-xmin)/(xmax-xmin)*float64(pw) }
	py := func(y float64) float64 { return mTop + (ymax-y)/(ymax-ymin)*float64(ph) }

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mLeft, mTop, mLeft, mTop+ph)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mLeft, mTop+ph, mLeft+pw, mTop+ph)
	// Y ticks.
	for i := 0; i <= 4; i++ {
		y := ymin + (ymax-ymin)*float64(i)/4
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ccc"/>`+"\n",
			mLeft, py(y), mLeft+pw, py(y))
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" text-anchor="end" font-size="10" font-family="sans-serif">%s</text>`+"\n",
			mLeft-4, py(y)+3, trimNum(y))
	}
	// X ticks.
	if c.Kind == Bar && len(c.XTicks) > 0 {
		n := len(c.XTicks)
		step := 1
		if n > 12 {
			step = n / 12
		}
		for i := 0; i < n; i += step {
			x := px(float64(i))
			fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle" font-size="9" font-family="sans-serif">%s</text>`+"\n",
				x, mTop+ph+14, esc(c.XTicks[i]))
		}
	} else {
		for i := 0; i <= 4; i++ {
			x := xmin + (xmax-xmin)*float64(i)/4
			fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle" font-size="10" font-family="sans-serif">%s</text>`+"\n",
				px(x), mTop+ph+14, trimNum(x))
		}
	}
	if c.XLabel != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle" font-size="11" font-family="sans-serif">%s</text>`+"\n",
			mLeft+pw/2, height-8, esc(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&sb, `<text x="14" y="%d" text-anchor="middle" font-size="11" font-family="sans-serif" transform="rotate(-90 14 %d)">%s</text>`+"\n",
			mTop+ph/2, mTop+ph/2, esc(c.YLabel))
	}

	colors := []string{"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"}
	switch c.Kind {
	case Bar:
		if len(c.Series) > 0 {
			s := c.Series[0]
			n := len(s.Ys)
			if n > 0 {
				bw := float64(pw) / float64(n) * 0.8
				for i, y := range s.Ys {
					if math.IsNaN(y) {
						continue
					}
					x := px(float64(i)) - bw/2
					y0 := py(math.Max(ymin, 0))
					y1 := py(y)
					if y1 > y0 {
						y0, y1 = y1, y0
					}
					fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
						x, y1, bw, y0-y1, colors[0])
				}
			}
		}
	default:
		for si, s := range c.Series {
			color := colors[si%len(colors)]
			// Uncertainty band first, so the curve draws on top: the upper
			// edge traced forward, the lower edge back.
			if s.hasBand() {
				var band []string
				for i := range s.Xs {
					if i >= len(s.Hi) || math.IsNaN(s.Hi[i]) {
						continue
					}
					band = append(band, fmt.Sprintf("%.1f,%.1f", px(s.Xs[i]), py(s.Hi[i])))
				}
				for i := len(s.Xs) - 1; i >= 0; i-- {
					if i >= len(s.Lo) || math.IsNaN(s.Lo[i]) {
						continue
					}
					band = append(band, fmt.Sprintf("%.1f,%.1f", px(s.Xs[i]), py(s.Lo[i])))
				}
				if len(band) > 2 {
					fmt.Fprintf(&sb, `<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>`+"\n",
						strings.Join(band, " "), color)
				}
			}
			var pts []string
			for i := range s.Xs {
				if i >= len(s.Ys) || math.IsNaN(s.Ys[i]) {
					continue
				}
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.Xs[i]), py(s.Ys[i])))
			}
			if len(pts) > 1 {
				fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
					strings.Join(pts, " "), color)
			}
			for _, p := range pts {
				xy := strings.Split(p, ",")
				fmt.Fprintf(&sb, `<circle cx="%s" cy="%s" r="3" fill="%s"/>`+"\n", xy[0], xy[1], color)
			}
			// Legend.
			fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
				mLeft+pw-130, mTop+8+16*si, color)
			fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" font-family="sans-serif">%s</text>`+"\n",
				mLeft+pw-116, mTop+17+16*si, esc(s.Label))
		}
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
