// Sensitivity: sweep the two deployment parameters the paper's
// Limitations section (VIII) calls out — capacitor size and harvesting
// environment — and watch EDBP's advantage shrink as energy becomes
// plentiful.
package main

import (
	"fmt"
	"log"

	"edbp"
)

func main() {
	const app = "adpcm_c"

	fmt.Println("== capacitor size (Figure 16) ==")
	fmt.Printf("%-10s %12s %12s %10s %8s\n", "capacitor", "outages", "EDBP speedup", "combined", "gain")
	for _, uf := range []float64{0.47, 4.7, 47, 100} {
		cfg := edbp.Config{App: app, CapacitorUF: uf}
		rs, err := edbp.RunAll(cfg, edbp.Baseline, edbp.EDBP, edbp.CacheDecayEDBP)
		if err != nil {
			log.Fatal(err)
		}
		base, e, comb := rs[0], rs[1], rs[2]
		fmt.Printf("%7.2fµF %12d %12.3f %10.3f %+7.1f%%\n",
			uf, base.PowerCycles, e.SpeedupOver(base), comb.SpeedupOver(base),
			100*(e.SpeedupOver(base)-1))
	}
	fmt.Println("(bigger capacitor → fewer outages → fewer zombies → less for EDBP to do)")

	fmt.Println("\n== harvesting environment (Figure 15) ==")
	fmt.Printf("%-10s %12s %12s %10s\n", "trace", "outages", "EDBP speedup", "combined")
	for _, trace := range []string{"RFHome", "RFOffice", "Thermal", "Solar"} {
		cfg := edbp.Config{App: app, EnergyTrace: trace}
		rs, err := edbp.RunAll(cfg, edbp.Baseline, edbp.EDBP, edbp.CacheDecayEDBP)
		if err != nil {
			log.Fatal(err)
		}
		base, e, comb := rs[0], rs[1], rs[2]
		fmt.Printf("%-10s %12d %12.3f %10.3f\n",
			trace, base.PowerCycles, e.SpeedupOver(base), comb.SpeedupOver(base))
	}
	fmt.Println("(richer sources sustain execution; EDBP matters most where power fails often)")
}
