package benchgate

import "fmt"

// Group is one experiment's runs on one side of a comparison. The gate
// reads each side's whole directory of artifacts at once; grouping
// splits it back into one comparison per experiment.
type Group struct {
	Experiment string
	Artifacts  []*Artifact
}

// GroupArtifacts parses raws (named by names, same length, for
// diagnostics) and groups them by experiment, ordered by first
// appearance. A parse failure in any file fails the whole call: a gate
// that silently ignored an unreadable artifact would pass exactly when
// it should be loudest. Mixed config hashes within a group are left
// for Compare to refuse.
func GroupArtifacts(names []string, raws [][]byte) ([]*Group, error) {
	if len(names) != len(raws) {
		return nil, fmt.Errorf("benchgate: %d names for %d artifacts", len(names), len(raws))
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("benchgate: no artifacts given")
	}
	index := make(map[string]*Group)
	var groups []*Group
	for i, raw := range raws {
		art, err := ParseArtifact(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		g, ok := index[art.Experiment]
		if !ok {
			g = &Group{Experiment: art.Experiment}
			index[art.Experiment] = g
			groups = append(groups, g)
		}
		g.Artifacts = append(g.Artifacts, art)
	}
	return groups, nil
}
