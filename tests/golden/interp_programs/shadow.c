/* Shadowed names and self-referencing initializers. */
int x;
int f(int n)
{
    int x; x = n;
    { int x; x = n * 10; }
    return x;
}
int main()
{
    int y = 4;
    int z = z + 2;
    x = 1;
    { int x; x = 5; y = y + x; }
    print(x, y, z, f(3));
    return 0;
}
