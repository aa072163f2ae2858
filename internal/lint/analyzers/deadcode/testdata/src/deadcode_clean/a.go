// Clean package: every function is reached, each in a different way
// that a call-only graph would miss or that runs from code the loader
// has no AST for. The analyzer must stay silent.
package main

import (
	"fmt"
	"net/http"
	"sort"
)

func main() {
	f := byValue // a function value
	f()

	var c counter
	g := c.inc // a method value
	g()
	h := (*counter).reset // a method expression
	h(&c)

	var s shape = square{} // dispatch on an interface declared here
	_ = s.area()

	fmt.Println(name{})                // fmt calls String
	http.Handle("/", handler{})        // net/http calls ServeHTTP
	sort.Sort(byLen{"a", "bb"})        // sort calls Len, Less and Swap
	fmt.Println(Map([]int{1}, double)) // a generic instantiation

	var st stack[int]
	st.push(1) // a method of an instantiated generic type
	_ = table
}

func byValue() {}

type counter struct{ n int }

func (c *counter) inc()   { c.n++ }
func (c *counter) reset() { c.n = 0 }

type shape interface{ area() float64 }

type square struct{ side }

// side's area is promoted into square, which the interface call reaches.
type side struct{ a float64 }

func (s side) area() float64 { return s.a * s.a }

type name struct{}

func (name) String() string { return "name" }

type handler struct{}

func (handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func double(x int) int { return 2 * x }

type stack[T any] struct{ xs []T }

func (s *stack[T]) push(x T) { s.xs = append(s.xs, x) }

// A package-level var initialiser is a root.
var table = map[string]func(){"v": fromVar}

func fromVar() {}

func init() { fromInit() }

func fromInit() {}
