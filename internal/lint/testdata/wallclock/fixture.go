// Package fixture exercises the wallclock analyzer, including the
// //lint:allow suppression path and malformed and stale directives.
package fixture

import "time"

func readsClock() time.Time { return time.Now() }

func sinceAndUntil(t time.Time) time.Duration {
	return time.Since(t) + time.Until(t)
}

func constantsAreFine() time.Duration { return 5 * time.Second }

func parseIsFine(s string) (time.Time, error) {
	return time.Parse(time.RFC3339, s)
}

func sanctioned() time.Duration {
	start := time.Now()      //lint:allow wallclock fixture measurement site
	return time.Since(start) //lint:allow wallclock fixture measurement site
}

func sanctionedOwnLine() time.Time {
	//lint:allow wallclock directive on its own line covers the next line
	return time.Now()
}

func missingReason() time.Time {
	return time.Now() //lint:allow wallclock
}

func unknownAnalyzer() time.Time {
	return time.Now() //lint:allow nosuchpass some reason
}

func staleDirective() time.Duration {
	//lint:allow wallclock nothing below reads the clock, so this is stale
	return 5 * time.Second
}
