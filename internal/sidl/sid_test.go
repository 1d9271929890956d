package sidl

import (
	"reflect"
	"testing"
)

// TestLitLayout pins the size of a property value. Every stored,
// replied or journalled offer holds one Lit per property in a map, and
// at 40 bytes a map of up to eight properties is one group in the
// 480-byte size class, not the 640-byte one a 56-byte Lit (with a
// separate Enum field) needs: on import_match that is ≈24 MB of live
// heap instead of ≈29. A new field is a memory decision: make it on
// purpose and move this pin with it.
func TestLitLayout(t *testing.T) {
	if got := reflect.TypeOf(Lit{}).Size(); got != 40 {
		t.Errorf("sidl.Lit is %d bytes, want 40", got)
	}
	if got := reflect.TypeOf(Property{}).Size(); got != 56 {
		t.Errorf("sidl.Property is %d bytes, want 56", got)
	}
}
