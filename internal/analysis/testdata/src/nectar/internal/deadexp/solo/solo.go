// Package solo is checked without the whole-program view: deadstate's
// exported half is silent there.
package solo

// Lonely has no caller anywhere.
func Lonely() {}
