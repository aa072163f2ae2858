// Violating package: functions and methods no root reaches. Each dead
// entry is reported once; what only a dead entry calls is covered by
// that entry's finding.
package main

import "fmt"

func main() {
	var t T
	t.live()
	fmt.Println(t)
}

type T struct{}

func (T) live() {}

func (T) dead() {} // want `T.dead is unreachable`

func unused() {} // want `unused is unreachable`

// A dead mutual recursion is one entry, reported at its first member.
func ping(n int) { // want `ping is unreachable .*dead cycle with pong`
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	if n > 0 {
		ping(n - 1)
	}
}

// helper is reached only from deadEntry, so only deadEntry is reported.
func deadEntry() { helper() } // want `deadEntry is unreachable`

func helper() {}

// String is a standard-library method name, but nothing reaches U, so
// nothing can call it.
type U struct{}

func (U) String() string { return "u" } // want `U.String is unreachable`
