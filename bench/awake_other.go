//go:build !linux

package main

func yieldToEveryone(int) {}
