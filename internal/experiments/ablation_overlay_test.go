package experiments

import (
	"reflect"
	"testing"
)

// TestAblationOverlayReproducible: two builds of the overlay ablation with
// the same seed report the same route lengths.
func TestAblationOverlayReproducible(t *testing.T) {
	cfg := smallCfg()
	cfg.DataSize = 200
	cfg = cfg.withDefaults()
	first, err := ablationOverlay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ablationOverlay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different tables:\n%v\n%v", first.Series, second.Series)
	}
}
