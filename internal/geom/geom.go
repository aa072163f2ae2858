// Package geom provides small planar-geometry primitives shared by the
// road-network model and the planar (2D) baseline mechanisms.
//
// All coordinates are in kilometres on a local tangent plane; the paper's
// maps are a few kilometres across, so a flat approximation is exact
// enough for every experiment.
package geom

import "math"

// Point is a location on the 2D plane, in kilometres.
type Point struct {
	X, Y float64
}

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp returns the point a fraction t of the way from p to q.
// t = 0 yields p, t = 1 yields q; t outside [0, 1] extrapolates.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Midpoint returns the midpoint of the segment pq.
func Midpoint(p, q Point) Point { return Lerp(p, q, 0.5) }

// Clamp restricts v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BoundingBox is an axis-aligned rectangle.
type BoundingBox struct {
	Min, Max Point
}

// Expand grows the box to include p.
func (b BoundingBox) Expand(p Point) BoundingBox {
	if p.X < b.Min.X {
		b.Min.X = p.X
	}
	if p.Y < b.Min.Y {
		b.Min.Y = p.Y
	}
	if p.X > b.Max.X {
		b.Max.X = p.X
	}
	if p.Y > b.Max.Y {
		b.Max.Y = p.Y
	}
	return b
}

// BoundsOf returns the bounding box of a non-empty point set.
// It panics on an empty slice: a bounding box of nothing is undefined.
func BoundsOf(pts []Point) BoundingBox {
	if len(pts) == 0 {
		panic("geom: BoundsOf of empty point set")
	}
	b := BoundingBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b = b.Expand(p)
	}
	return b
}
