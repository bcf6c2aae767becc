// Package a holds one declaration of each kind the unreached-surface
// check classifies.
package a

// Unused is referenced by no non-test file: the check reports it.
func Unused() {}

// unusedConst and unusedType are reported too: the check covers
// unexported names and every kind of declaration.
const unusedConst = 1

type unusedType struct{ next *unusedType }

// Impl's methods are reached only indirectly.
type Impl struct{}

// Satisfies is reached through the Shape interface.
func (Impl) Satisfies() int { return 1 }

// ViaConstraint is called only through a type-parameter constraint.
func (Impl) ViaConstraint() int { return 2 }

// AsValue is taken only as a method value.
func (Impl) AsValue() int { return 3 }

// Shape is an interface Impl satisfies.
type Shape interface{ Satisfies() int }

// Use calls Satisfies through Shape.
func Use(s Shape) int { return s.Satisfies() }

// Call calls ViaConstraint through its constraint.
func Call[T interface{ ViaConstraint() int }](t T) int { return t.ViaConstraint() }

// NestedOnly is referenced only from the nested module.
func NestedOnly() {}

// Counter's Merge is called only through a constraint that names its
// pointer type.
type Counter struct{ n int }

// Merge adds o to c.
func (c *Counter) Merge(o Counter) { c.n += o.n }

// Fold merges src into acc.
func Fold[T any, P interface {
	*T
	Merge(T)
}](acc, src P) {
	acc.Merge(*src)
}
