package switchd

import (
	"reflect"
	"testing"
)

// TestTaskStatsAddCoversEveryField guards the fat-tree's per-task sum: a
// field added to TaskStats but not to Add would be dropped silently.
func TestTaskStatsAddCoversEveryField(t *testing.T) {
	var st TaskStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := st
	sum.Add(&st)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if want := 2 * int64(i+1); got.Field(i).Int() != want {
			t.Errorf("Add left %s at %d, want %d", v.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
