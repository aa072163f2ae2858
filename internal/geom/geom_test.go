package geom

import (
	"testing"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestDistAndNorm(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v", d)
	}
	if n := (Point{3, 4}).Norm(); n != 5 {
		t.Fatalf("Norm = %v", n)
	}
}

func TestLerpMidpoint(t *testing.T) {
	a, b := Point{0, 0}, Point{2, 4}
	if m := Midpoint(a, b); m != (Point{1, 2}) {
		t.Fatalf("Midpoint = %v", m)
	}
	if l := Lerp(a, b, 0.25); l != (Point{0.5, 1}) {
		t.Fatalf("Lerp = %v", l)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{0, 0}, {2, -1}, {1, 3}}
	b := BoundsOf(pts)
	if b.Min != (Point{0, -1}) || b.Max != (Point{2, 3}) {
		t.Fatalf("bounds = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BoundsOf(empty) must panic")
		}
	}()
	BoundsOf(nil)
}
