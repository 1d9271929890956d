package xcode

// PlanCount reports how many Go struct types the binder holds a plan
// for.
func PlanCount() int {
	n := 0
	plans.Range(func(any, any) bool { n++; return true })
	return n
}
