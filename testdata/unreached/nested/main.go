package main

import "fake/internal/a"

func main() { a.NestedOnly() }
