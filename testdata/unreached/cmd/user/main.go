package main

import "fake/internal/a"

func main() {
	var i a.Impl
	f := i.AsValue
	_ = a.Use(i) + a.Call(i) + f()
	var c a.Counter
	a.Fold(&c, &c)
}
