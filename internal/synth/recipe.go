package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/mica"
)

// Version names the synthesis recipe: the roster, the workload table, the
// performance model, the noise draws and their order. Bump it whenever a
// change moves any generated score or characteristic; TestRecipeGolden
// pins the data of several seeds next to it and fails until it is bumped.
// Experiment units are keyed by the recipe (Options.Fingerprint), so a
// bump makes every stored unit miss once and be recomputed.
const Version = 1

// Fingerprint names the data Generate(o) returns: Version, the
// architecture and every field of o. Equal fingerprints mean equal data,
// which is what lets a run key its units without synthesising. The
// architecture stays in until arm64 synthesis is bit-identical to amd64's
// (the Go compiler fuses x*y+z there).
func (o Options) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "synth/v%d/%s\n", Version, runtime.GOARCH)
	binary.Write(h, binary.LittleEndian, o.Seed)
	binary.Write(h, binary.LittleEndian, math.Float64bits(o.ScoreNoise))
	binary.Write(h, binary.LittleEndian, math.Float64bits(o.CharNoise))
	binary.Write(h, binary.LittleEndian, o.HonestCharacteristics)
	return hex.EncodeToString(h.Sum(nil))
}

// Validate rejects options Generate would refuse.
func (o Options) Validate() error {
	if o.ScoreNoise < 0 || o.CharNoise < 0 {
		return fmt.Errorf("synth: negative noise level (%v, %v)", o.ScoreNoise, o.CharNoise)
	}
	return nil
}

// Layout returns the matrix Generate builds with every score zero: its
// benchmarks and machines in the same order, so the families, year
// splits and benchmark order of a run are known without synthesis.
func Layout() (*dataset.Matrix, error) {
	roster, err := machine.Roster()
	if err != nil {
		return nil, err
	}
	table, err := mica.SPEC2006Table()
	if err != nil {
		return nil, err
	}
	return layout(roster, table)
}

// layout is the empty benchmarks × machines matrix over a roster and a
// workload table, in the order generate fills it.
func layout(roster []machine.Config, table *mica.Table) (*dataset.Matrix, error) {
	machines := make([]dataset.Machine, len(roster))
	for i, c := range roster {
		machines[i] = dataset.Machine{
			ID: c.ID, Vendor: c.Vendor, Family: c.Family,
			Nickname: c.Nickname, ISA: c.ISA, Year: c.Year,
		}
	}
	return dataset.New(table.Names(), machines)
}

// Fingerprint hashes everything an experiment consumes from the data: the
// score matrix snapshot plus the workload characteristics. Runs over data
// that was not synthesised from a recipe key their units by it.
func (d *Data) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, d.Matrix.Hash())
	names := make([]string, 0, len(d.Characteristics))
	for name := range d.Characteristics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%q:", name)
		for _, v := range d.Characteristics[name] {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
