//go:build race

package gridbcg

func init() { raceEnabled = true }
